"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; timing limits are asserted alongside the numeric contracts.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from c2alg import cli
from c2alg.genus import (ahat_polynomial, ahat_sequence, cp_projective_data,
                         genus_evaluate, product_data)
from c2alg.linalg import fixed_point_retraction
from c2alg.mackey import (FIXTURE_EXPECTED, check_mackey_axioms,
                          fixture_presentations, mat_mul)
from c2alg.verify import (suite_clifford, suite_functional_calculus, suite_phi, suite_rho,
                          suite_spin_lift)
from numpy_draws import random_unitary

SEED = 7


def _passed(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_01_ahat_cp2():
    start = time.perf_counter()
    value = genus_evaluate(ahat_sequence(), cp_projective_data(2))
    elapsed = time.perf_counter() - start
    assert value == Fraction(-1, 8)
    assert elapsed < 1.0
    _passed(1, f"A-hat of CP2 = {value} exactly ({elapsed:.3f}s)")


def test_criterion_02_ahat_cp2_squared_two_routes():
    start = time.perf_counter()
    seq = ahat_sequence()
    gamma = cp_projective_data(2)
    square = product_data(gamma, gamma)
    route_direct = genus_evaluate(seq, square)
    route_multiplicative = genus_evaluate(seq, gamma) * genus_evaluate(seq, gamma)
    K2 = ahat_polynomial(2)
    route_polynomial = K2.coeff((2, 0)) * square.number((1, 1)) \
        + K2.coeff((0, 1)) * square.number((2,))
    elapsed = time.perf_counter() - start
    assert square.number((1, 1)) == 18 and square.number((2,)) == 9
    assert route_direct == Fraction(1, 64)
    assert route_direct == route_multiplicative == route_polynomial
    assert elapsed < 1.0
    _passed(2, f"A-hat of CP2 x CP2 = 1/64 by both routes, bit-for-bit ({elapsed:.3f}s)")


def test_criterion_03_obstruction_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["obstruction", "--genus", "-1/8", "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "obstructed"
    assert report["outputs"]["period"] == 4
    assert report["outputs"]["residues"] == ["1/32", "9/32", "17/32", "25/32"]

    code_witness = cli.main(["obstruction", "--genus", "0", "--json"])
    out2 = capsys.readouterr().out
    witness_report = json.loads(out2)
    elapsed = time.perf_counter() - start
    assert code_witness == 2
    assert witness_report["outputs"]["witness"] == 0
    assert elapsed < 1.0
    _passed(3, f"obstruction CLI: -1/8 obstructed with exact residues, 0 has witness ({elapsed:.3f}s)")


def test_criterion_04_clifford_suite():
    start = time.perf_counter()
    result = suite_clifford(SEED, 1000)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    assert elapsed < 10.0
    _passed(4, f"clifford suite: {result.checks} exact checks over 1000 cases ({elapsed:.2f}s)")


def test_criterion_05_rho_suite():
    start = time.perf_counter()
    result = suite_rho(SEED, 500)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    assert elapsed < 10.0
    _passed(5, f"rho suite: {result.checks} exact checks over 500 cases ({elapsed:.2f}s)")


def test_criterion_06_spin_lift():
    start = time.perf_counter()
    result = suite_spin_lift(SEED, 100)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    assert result.residuals["rho"] < 1e-9
    assert elapsed < 30.0
    _passed(6, f"spin lift: 100 random rotations, max residual "
               f"{result.residuals['rho']:.2e} ({elapsed:.2f}s)")


def test_criterion_07_phi_lift():
    start = time.perf_counter()
    result = suite_phi(SEED, 50)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    for key in ("rho", "homomorphism", "real_equivariance", "canonicity"):
        assert result.residuals[key] < 1e-9
    assert elapsed < 60.0
    _passed(7, "phi lift: 50 cases, residuals "
               + ", ".join(f"{k}={result.residuals[k]:.2e}"
                           for k in ("rho", "homomorphism", "real_equivariance",
                                     "canonicity"))
               + f" ({elapsed:.2f}s)")


def test_criterion_08_fixed_point_retraction():
    nrng = np.random.default_rng(SEED)
    worst_fixed = 0.0
    worst_orbit = 0.0
    for i in range(100):
        n = 1 + (i % 4)
        N = max(n, 5 + (i % 4))
        frame = np.linalg.qr(nrng.standard_normal((N, n)))[0]
        fiber = nrng.standard_normal(n)
        U = random_unitary(nrng, n)
        result = fixed_point_retraction(frame @ U.conj().T, U @ fiber)
        worst_fixed = max(worst_fixed, result.residuals["frame_imag"],
                          result.residuals["fiber_imag"])
        worst_orbit = max(worst_orbit, result.residuals["orbit_frame"],
                          result.residuals["orbit_fiber"])
    assert worst_fixed < 1e-10
    assert worst_orbit < 1e-9
    _passed(8, f"fixed-point retraction: 100 orbits, fixedness {worst_fixed:.2e}, "
               f"orbit distance {worst_orbit:.2e}")


def test_criterion_09_functional_calculus_suite():
    start = time.perf_counter()
    result = suite_functional_calculus(SEED, 60)
    elapsed = time.perf_counter() - start
    assert result.failures == []
    assert elapsed < 5.0
    _passed(9, f"functional calculus: {result.checks} exact identities ({elapsed:.2f}s)")


def test_criterion_10_mackey_fixtures():
    fixtures = fixture_presentations()
    for name, presentation in fixtures.items():
        report = check_mackey_axioms(presentation)
        assert report.all_passed == FIXTURE_EXPECTED[name], name
        if FIXTURE_EXPECTED[name]:
            n = presentation.m_e.ngens
            res_tr = mat_mul(presentation.res, presentation.tr, n)
            for j in range(n):
                column = [res_tr[i][j] - (1 if i == j else 0) - presentation.conj[i][j]
                          for i in range(n)]
                assert presentation.m_e.is_zero(column)
    broken = check_mackey_axioms(fixtures["broken_transfer"])
    assert [a.passed for a in broken.axioms] == [True, True, True, False]
    _passed(10, "mackey fixtures: expected pass/fail pattern, res(tr(y)) = y + conj(y) "
                "on every generator")


def test_criterion_11_deterministic_reports():
    argv = [sys.executable, "-m", "c2alg.cli",
            "verify", "--suite", "all", "--seed", "7", "--json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["verdict"] == "pass"
    _passed(11, "verify --suite all --seed 7 twice: byte-identical JSON reports")
