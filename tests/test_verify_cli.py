import gc
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import c2alg
from c2alg import cli, pin_spin, verify
from c2alg.clifford import ccl, ccl_interleaved
from c2alg.linalg import matrix_to_json
from c2alg.pin_spin import DensePin
from c2alg.verify import MAX_CASES, SuiteResult, run_verify, suite_phi, suite_spin_lift
from numpy_draws import random_special_orthogonal, random_unitary


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliffordCommand:
    def test_mul(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1", "--b", "e2")
        assert code == 0
        assert out.strip() == "e1e2"

    def test_conj(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "conj", "--signature", "1,1",
                               "--a", "e2")
        assert code == 0
        assert out.strip() == "-e2"

    def test_star(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "star", "--signature", "2,0",
                               "--a", "e1e2")
        assert code == 0
        assert out.strip() == "-e1e2"

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1", "--b", "e1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["expression"] == "1"
        assert report["outputs"]["generator_convention"] == "blocked"
        assert report["verdict"] == "value"

    def test_missing_b_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1")
        assert code == 64
        assert "error" in err

    def test_malformed_expression_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "clifford", "conj", "--signature", "2,0",
                               "--a", "e1 +")
        assert code == 64
        assert "error" in err


class TestAhatCommand:
    def test_cp2(self, capsys):
        code, out, _ = run_cli(capsys, "ahat", "--manifold", "CP2")
        assert code == 0
        assert out.strip() == "-1/8"

    def test_cp2_squared(self, capsys):
        code, out, _ = run_cli(capsys, "ahat", "--manifold", "CP2 x CP2")
        assert code == 0
        assert out.strip() == "1/64"

    def test_pontryagin_file(self, capsys, tmp_path):
        payload = {"dim": 8, "pontryagin": {"1,1": "18/1", "2": "9/1"}}
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "ahat", "--pontryagin", str(path))
        assert code == 0
        assert out.strip() == "1/64"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "ahat")
        assert code == 64
        code, _, err = run_cli(capsys, "ahat", "--manifold", "CP2",
                               "--pontryagin", "x.json")
        assert code == 64

    def test_bad_manifold_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ahat", "--manifold", "Torus")
        assert code == 64

    def test_malformed_pontryagin_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 8, "pontryagin": {"1": "3/1"}}),
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "ahat", "--pontryagin", str(path))
        assert code == 64
        assert "error" in err


class TestObstructionCommand:
    def test_reference_obstruction(self, capsys):
        code, out, _ = run_cli(capsys, "obstruction", "--genus", "-1/8", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["period"] == 4
        assert report["outputs"]["residues"] == ["1/32", "9/32", "17/32", "25/32"]
        assert report["verdict"] == "obstructed"

    def test_witness_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "obstruction", "--genus", "0")
        assert code == 2
        assert "witness" in out

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(capsys, "obstruction", "--genus", "pi")
        assert code == 64


# (algebra, factors, phase, expression, terms as JSON) of lifts whose entries are
# single float products, so they do not depend on summation order. Every nonzero
# entry is a term: -0.0 is kept in "terms", a float coefficient of 1.0 is written out,
# the expression orders blades by (grade, mask) and "terms" by mask.
LIFT_REPORT_FORMS = {
    "real-with-scalar": (ccl(3, 0), [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]], 1,
                         "0.6 - 0.8*e1e2", "[[0, [0.6, 0.0]], [3, [-0.8, 0.0]]]"),
    "imaginary": (ccl(3, 0), [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]], 1j,
                  "0.6*i - 0.8*i*e1e2", "[[0, [0.0, 0.6]], [3, [-0.0, -0.8]]]"),
    "mixed": (ccl(3, 0), [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]], 0.6 - 0.8j,
              "(0.36 - 0.48*i) + (-0.48 + 0.6400000000000001*i)*e1e2",
              "[[0, [0.36, -0.48]], [3, [-0.48, 0.6400000000000001]]]"),
    "minus-one": (ccl(3, 0), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], -1,
                  "-1.0*e1e2", "[[3, [-1.0, 0.0]]]"),
    "one": (ccl(3, 0), [[0.0, 0.0, 1.0]], 1, "1.0*e3", "[[4, [1.0, 0.0]]]"),
    "grade-before-mask": (
        ccl(4, 0), [[0.6, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8]],
        -0.8 + 0.6j,
        "(-0.288 + 0.216*i)*e3 + (-0.384 + 0.288*i)*e4 + (0.384 - 0.288*i)*e1e2e3"
        " + (0.5120000000000001 - 0.38400000000000006*i)*e1e2e4",
        "[[4, [-0.288, 0.216]], [7, [0.384, -0.288]], [8, [-0.384, 0.288]],"
        " [11, [0.5120000000000001, -0.38400000000000006]]]"),
    "minus-i": (ccl_interleaved(2), [[0.0, 1.0, 0.0, 0.0]], -1j,
                "-1.0*i*e2", "[[2, [0.0, -1.0]]]"),
}


class TestLiftCommands:
    @pytest.mark.parametrize("form", LIFT_REPORT_FORMS)
    def test_lift_report_format(self, capsys, form):
        alg, vectors, phase, expression, terms = LIFT_REPORT_FORMS[form]
        g = DensePin(alg, vectors, phase)
        report = cli._lift_report("spin-lift", np.eye(2), g, {"rho": 0.0})
        assert report["outputs"]["expression"] == expression
        assert json.dumps(report["outputs"]["terms"]) == terms  # -0.0 == 0.0, but not as text
        code = cli._emit_lift(SimpleNamespace(json=False), "spin-lift", np.eye(2), g,
                              {"rho": 0.0})
        assert code == 0
        assert capsys.readouterr().out == f"lift: {expression}\nresidual rho: 0.000e+00\n"

    @pytest.mark.parametrize("lift", ["spin", "phi", "reflection"])
    def test_terms_are_the_nonzero_entries_of_the_scattered_half(self, lift):
        # the report reads the half and its masks; a full array scattered here is the oracle
        nrng = np.random.default_rng(41)
        if lift == "spin":
            matrix = random_special_orthogonal(nrng, 6)
            g = pin_spin.spin_lift(matrix)
        elif lift == "phi":
            matrix = random_unitary(nrng, 3)
            g = pin_spin.phi_lift(matrix)
        else:
            u = nrng.standard_normal(5)
            g = DensePin(ccl(5, 0), [u / np.linalg.norm(u)])
            matrix = pin_spin.twisted_adjoint(g)
        full = np.zeros(1 << g.algebra.dim, dtype=complex)
        full[g.masks] = g.half
        support = np.flatnonzero(full).tolist()
        terms = cli._lift_report(f"{lift}-lift", matrix, g, {})["outputs"]["terms"]
        assert terms == [[m, [full[m].real, full[m].imag]] for m in support]
        masks = [m for m, _ in terms]
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert {m.bit_count() % 2 for m in masks} == {g.parity}

    def test_spin_lift(self, capsys, tmp_path):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]}
        path = tmp_path / "rot.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "spin-lift", "--matrix", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["residuals"]["rho"] < 1e-9
        assert report["outputs"]["parity"] == "even"

    def test_spin_lift_rejects_reflection(self, capsys, tmp_path):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
        path = tmp_path / "refl.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(capsys, "spin-lift", "--matrix", str(path))
        assert code == 64
        assert "determinant" in err

    def test_phi_lift(self, capsys, tmp_path):
        payload = {"rows": 1, "cols": 1, "entries": [[[0, 1]]]}
        path = tmp_path / "u.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "phi-lift", "--unitary", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["residuals"]["real_equivariance"] < 1e-9
        assert report["outputs"]["generator_convention"] == "interleaved"
        assert report["outputs"]["metadata"]["near_branch_cut"] is False

    @pytest.mark.parametrize("command, flag", [("spin-lift", "--matrix"),
                                               ("phi-lift", "--unitary")])
    def test_non_finite_matrix_is_usage_error(self, capsys, tmp_path, command, flag):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[float("nan"), 0], [-1, 0]], [[1, 0], [0, 0]]]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == 64
        assert out == ""
        assert err == "error: matrix entries must be finite\n"

    def test_imaginary_part_refused_by_spin_lift(self, capsys, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(_IMAGINARY_ROTATION, encoding="utf-8")
        code, out, err = run_cli(capsys, "spin-lift", "--matrix", str(path))
        assert (code, out, err) == (64, "", "error: expected a real matrix\n")

    @pytest.mark.parametrize("command, flag", [("spin-lift", "--matrix"),
                                               ("phi-lift", "--unitary")])
    def test_empty_matrix_is_refused_by_name(self, capsys, tmp_path, command, flag):
        path = tmp_path / "empty.json"
        path.write_text('{"rows": 0, "cols": 0, "entries": []}', encoding="utf-8")
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == 64
        assert out == ""
        assert err == "error: empty matrix: rows and cols must be at least 1\n"

    @pytest.mark.parametrize("command, flag, make, kind", [
        ("spin-lift", "--matrix", lambda nrng: random_special_orthogonal(nrng, 5), "orthogonal"),
        ("phi-lift", "--unitary", lambda nrng: random_unitary(nrng, 3), "unitary")])
    def test_env_tolerance_reaches_every_nested_check(self, capsys, tmp_path, monkeypatch,
                                                      command, flag, make, kind):
        # C2ALG_TOL is the only override: a 1e-6 perturbation fails the first check at the
        # default and passes every later one (eigh, realify, lift, unit check, residuals)
        path = tmp_path / "noisy.json"
        noisy = make(np.random.default_rng(5)) + 1e-6
        path.write_text(json.dumps(matrix_to_json(noisy)), encoding="utf-8")
        code, out, err = run_cli(capsys, command, flag, str(path), "--json")
        assert code == 64
        assert out == ""
        assert err == f"error: input is not {kind} within tolerance\n"
        monkeypatch.setenv("C2ALG_TOL", "1e-3")
        code, out, _ = run_cli(capsys, command, flag, str(path), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "phi-lift", "--unitary", "/nonexistent.json")
        assert code == 64


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "mackey",
                               "--seed", "3", "--cases", "10")
        assert code == 0
        assert "PASS" in out

    def test_json_deterministic_in_process(self, capsys):
        a = run_cli(capsys, "verify", "--suite", "genus", "--seed", "7",
                    "--cases", "5", "--json")[1]
        b = run_cli(capsys, "verify", "--suite", "genus", "--seed", "7",
                    "--cases", "5", "--json")[1]
        assert a == b

    def test_seed_recorded(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "mackey", "--seed", "11",
                            "--cases", "5", "--json")
        report = json.loads(out)
        assert report["inputs"]["seed"] == 11
        assert report["inputs"]["cases"] == 5

    def test_suite_choices_are_the_suites_and_all(self):
        # the CLI writes them out, so exact commands need not import verify (numpy)
        verify_parser = next(a for a in cli.build_parser()._actions
                             if a.dest == "command").choices["verify"]
        suite = next(a for a in verify_parser._actions if a.dest == "suite")
        assert suite.choices == [*verify.SUITES, "all"]

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 64

    def test_subprocess_determinism_small(self):
        argv = [sys.executable, "-m", "c2alg.cli", "verify", "--suite",
                "functional-calculus", "--seed", "7", "--cases", "8", "--json"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0

    @pytest.mark.parametrize("as_json", [False, True])
    def test_closed_stdout_exits_quietly(self, as_json):
        # the reader is gone before the report is written, as after `| head` exits
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = [sys.executable, "-m", "c2alg.cli", "verify", "--suite", "mackey",
                "--cases", "1"] + (["--json"] if as_json else [])
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 64

    @pytest.mark.parametrize("value", ["abc", "nan", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, monkeypatch, tmp_path, value):
        # main checks C2ALG_TOL before any handler runs, exact commands included
        rotation = tmp_path / "rot.json"
        rotation.write_text(json.dumps(matrix_to_json(np.eye(3))), encoding="utf-8")
        monkeypatch.setenv("C2ALG_TOL", value)
        for argv in (["verify", "--suite", "pin-spin", "--cases", "1"],
                     ["obstruction", "--genus", "-1/8"],
                     ["ahat", "--manifold", "CP2"],
                     ["clifford", "mul", "--signature", "2,0", "--a", "e1", "--b", "e2"],
                     ["spin-lift", "--matrix", str(rotation)],
                     ["phi-lift", "--unitary", str(rotation)]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (64, ""), argv
            assert err == f"error: C2ALG_TOL must be a positive finite number, got {value!r}\n"

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 64

    @pytest.mark.parametrize("argv, tol, line", [
        (["clifford", "mul", "--signature", "1,2,3", "--a", "e1", "--b", "e1"], None,
         "bad signature '1,2,3'; expected p,q"),
        (["clifford", "mul", "--signature", "a,b", "--a", "e1", "--b", "e1"], None,
         "bad signature 'a,b'; expected p,q"),
        (["clifford", "mul", "--signature", "2,0", "--a", "e1"], None, "mul requires --b"),
        (["obstruction", "--genus", "abc"], None, "bad rational 'abc'"),
        (["ahat"], None, "provide exactly one of --manifold or --pontryagin"),
        (["ahat", "--manifold", "CP2"], "abc",
         "C2ALG_TOL must be a positive finite number, got 'abc'"),
        (["ahat", "--pontryagin", "FILE"], None,
         "a result has more digits than can be printed"),
        (["clifford", "conj", "--signature", "2,0", "--a", "1.5/2"], None,
         "not a rational: '1.5/2'"),
        (["verify", "--seed", "1.5"], None, "argument --seed: must be an integer, got '1.5'"),
        (["ahat", "--manifold", "CP2 x CP999"], None,
         "manifold factor 'CP999' exceeds the supported maximum dimension 40"),
    ], ids=["signature-three-parts", "signature-not-integers", "mul-without-b",
            "genus-not-rational", "ahat-without-source", "tolerance-not-a-number",
            "ahat-result-4301-digits", "token-not-a-rational", "seed-not-an-integer",
            "manifold-factor-too-large"])
    def test_usage_line(self, capsys, monkeypatch, tmp_path, argv, tol, line):
        # each refusal is exactly one stderr line, whichever check makes it
        path = tmp_path / "p.json"
        path.write_text(_RESULT_4301_DIGITS, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        if tol is not None:
            monkeypatch.setenv("C2ALG_TOL", tol)
        assert run_cli(capsys, *argv) == (64, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv, tol", [
        (["obstruction", "--genus", "9" * 4301], None),
        (["clifford", "conj", "--signature", "2,0", "--a", "9" * 4301], None),
        (["ahat", "--pontryagin", "FILE"], None),
        (["clifford", "conj", "--signature", "9" * 4301 + ",0", "--a", "e1"], None),
        (["verify", "--cases", "9" * 4301], None),
        (["obstruction", "--genus", "-1/8"], "9" * 4301),
        (["verify", "--seed", "9" * 4301], None),
    ], ids=["genus", "clifford-token", "pontryagin-value", "signature", "cases", "tolerance",
            "seed"])
    def test_long_value_named_by_its_size(self, capsys, monkeypatch, tmp_path, argv, tol):
        # a 4301-digit value is refused on one short line, not quoted in full
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"dim": 4, "pontryagin": {"1": "9" * 4301}}),
                        encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        if tol is not None:
            monkeypatch.setenv("C2ALG_TOL", tol)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err) < 200 and "-character value" in err


def run_module(argv, env=None):
    """Run ``python -m c2alg.cli`` on argv in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "c2alg.cli", *argv], capture_output=True,
                          env=None if env is None else {**os.environ, **env}, timeout=120)


class TestEntryPoint:
    """``python -m c2alg.cli`` and the ``c2alg`` script end through ``cli.run``."""

    @pytest.mark.parametrize("argv, tol, code", [
        (["obstruction", "--genus", "-1/8"], None, 0),
        (["obstruction", "--genus", "0"], None, 2),
        (["clifford", "conj", "--signature", "2,0", "--a", "1/0"], None, 64),
        # the rotation's residuals are 2.2e-16, above this tolerance
        (["spin-lift", "--matrix", "FILE", "--json"], "1e-17", 1),
    ], ids=["obstructed", "witness", "usage", "verdict-fail"])
    def test_exit_code_and_bytes_match_main(self, capsys, monkeypatch, tmp_path,
                                            argv, tol, code):
        path = tmp_path / "rot.json"
        path.write_text(_ROTATION, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        env = None if tol is None else {"C2ALG_TOL": tol}
        proc = run_module(argv, env)
        if tol is not None:
            monkeypatch.setenv("C2ALG_TOL", tol)
        assert run_cli(capsys, *argv) == (code, proc.stdout.decode(), proc.stderr.decode())
        assert proc.returncode == code

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert cli.main(["verify", "--suite", "mackey", "--cases", "1"]) == 0
        assert gc.get_freeze_count() == before

    def test_run_returns_the_code_of_main_and_freezes(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["c2alg", "obstruction", "--genus", "0"])
        try:
            assert cli.run() == 2
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "witness" in capsys.readouterr().out


# (command line, JSON file text or None); "FILE" stands for the file's path
_HUGE_ENTRIES = '{"rows": 2, "cols": 2, "entries": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}'
# Python prints integers of at most 4300 digits (sys.get_int_max_str_digits)
_DIGITS_4301 = '{"dim": 8, "pontryagin": {"1,1": "1e4300"}}'
_DIGITS_3001 = "1" + "0" * 3000
# inputs of 4300 digits each; the genus (7 p1^2 - 4 p2) / 5760 has 4301
_RESULT_4301_DIGITS = json.dumps({"dim": 8, "pontryagin": {"1,1": "9" * 4300,
                                                          "2": "-" + "9" * 4300}})
# the 90-degree rotation with an imaginary part on one entry
_IMAGINARY_ROTATION = '{"rows": 2, "cols": 2, "entries": [[[0, 0], [-1, 0]], [[1, 0], [0, 0.5]]]}'

# (1+e1)(1+e2)...(1+e16): every one of the 2^16 blades of ccl(16, 0)
_FULL_16 = "".join(f"(1+e{i})" for i in range(1, 17))

MALFORMED_INPUTS = [
    (["clifford", "conj", "--signature", "2,0", "--a", "1/0"], None),
    (["clifford", "conj", "--signature", "2,0", "--a", "(" * 600 + "e1" + ")" * 600], None),
    (["clifford", "mul", "--signature", "2,0", "--a", "e1*" + "-" * 3000, "--b", "1"], None),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4, "pontryagin": [1]}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4, "pontryagin": {"1": "1/0"}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 1e400, "pontryagin": {}}'),
    (["spin-lift", "--matrix", "FILE"], '{"rows": 2, "cols": 2, "entries": 5}'),
    (["phi-lift", "--unitary", "FILE"], '{"rows": 2, "cols": 2, "entries": 5}'),
    (["ahat", "--manifold", "CP40"], None),
    (["ahat", "--manifold", "CP2^1000000"], None),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 200, "pontryagin": {}}'),
    (["spin-lift", "--matrix", "FILE"], '{"rows": 0, "cols": 0, "entries": []}'),
    (["phi-lift", "--unitary", "FILE"], '{"rows": 0, "cols": 0, "entries": []}'),
    (["obstruction", "--genus", "1e9999999"], None),
    (["clifford", "conj", "--signature", "99999999999999999999,0", "--a", "e1"], None),
    (["verify", "--suite", "mackey", "--cases", "-5"], None),
    (["verify", "--suite", "all", "--cases", str(MAX_CASES + 1)], None),
    (["spin-lift", "--matrix", "FILE"], _HUGE_ENTRIES),
    (["phi-lift", "--unitary", "FILE"], _HUGE_ENTRIES),
    (["obstruction", "--genus", "1e-9"], None),
    (["obstruction", "--genus", "1/1000000007"], None),
    (["obstruction", "--genus", "1e4300"], None),
    (["obstruction", "--genus", "1e4300", "--json"], None),
    (["obstruction", "--genus", "1e-4299"], None),
    (["ahat", "--pontryagin", "FILE"], _DIGITS_4301),
    (["ahat", "--pontryagin", "FILE", "--json"], _DIGITS_4301),
    (["ahat", "--pontryagin", "FILE"], _RESULT_4301_DIGITS),
    (["clifford", "mul", "--signature", "1,0", "--a", _DIGITS_3001, "--b", _DIGITS_3001], None),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4.7, "pontryagin": {"1": "3"}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": true, "pontryagin": {}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4, "pontryagin": {"1": "3", "01": "2"}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 8, "pontryagin": {"1,1": "3", "1, 1": "5"}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 12, "pontryagin": {"2,1": "3", "1,2": "5"}}'),
    (["spin-lift", "--matrix", "FILE"], _IMAGINARY_ROTATION),
    (["ahat", "--manifold", "CP" + "9" * 4301], None),
    (["ahat", "--manifold", "CP2^" + "9" * 4301 + " x CP2"], None),
    # 2^32 term pairs, about 20 min of work: refused before the product
    (["clifford", "mul", "--signature", "16,0", "--a", _FULL_16, "--b", _FULL_16], None),
    (["ahat", "--manifold", "CP\u0660"], None),
    (["ahat", "--manifold", "Q" * 5000], None),
]


@pytest.mark.parametrize("argv, text", MALFORMED_INPUTS,
                         ids=["zero-denominator", "deep-nesting", "long-unary-chain",
                              "pontryagin-list", "pontryagin-zero-denominator",
                              "infinite-dim", "spin-lift-entries", "phi-lift-entries",
                              "ahat-cp40", "ahat-huge-power", "ahat-dim-200",
                              "spin-lift-empty", "phi-lift-empty", "huge-exponent",
                              "huge-signature", "negative-cases", "cases-above-cap",
                              "spin-lift-overflow", "phi-lift-overflow",
                              "genus-period-1e-9", "genus-period-prime",
                              "genus-4301-digits", "genus-4301-digits-json",
                              "genus-period-4300-digits", "pontryagin-4301-digits",
                              "pontryagin-4301-digits-json", "ahat-result-4301-digits",
                              "product-6001-digits", "dim-not-integral", "dim-bool",
                              "partition-twice-zero-padded", "partition-twice-spaced",
                              "partition-twice-reordered", "spin-lift-imaginary",
                              "ahat-index-4301-digits", "ahat-power-4301-digits",
                              "product-over-term-pair-budget", "ahat-non-ascii-zero",
                              "ahat-unparsable-5000-chars"])
def test_malformed_input_exits_64_with_one_line(tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "c2alg.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    # a short line in the CLI's terms: no advice to call Python's digit-limit setter
    assert len(lines[0]) < 200 and "set_int_max_str_digits" not in lines[0]


class TestPrintableValues:
    """Values up to Python's 4300-digit integer-string limit are read and printed."""

    def test_largest_printable_values_still_work(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "obstruction", "--genus", "1e4299", "--json")
        assert code == 2
        assert json.loads(out)["inputs"]["genus"] == "1" + "0" * 4299 + "/1"
        path = tmp_path / "p.json"
        path.write_text('{"dim": 8, "pontryagin": {"1,1": "1e4299"}}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "ahat", "--pontryagin", str(path))
        assert code == 0
        assert out.strip() == str(Fraction(7 * 10**4299, 5760))

    def test_period_error_names_the_size(self, capsys):
        code, out, err = run_cli(capsys, "obstruction", "--genus", "1e-4299")
        assert (code, out) == (64, "")
        assert err == ("error: residue period of a genus with a 4300-digit denominator "
                       "exceeds the supported maximum 100000\n")

    def test_unprintable_result_exits_64_in_process(self, capsys):
        code, out, err = run_cli(capsys, "clifford", "mul", "--signature", "1,0",
                                 "--a", _DIGITS_3001, "--b", _DIGITS_3001, "--json")
        assert (code, out) == (64, "")
        assert err == "error: a result has more digits than can be printed\n"

    def test_other_value_errors_still_raise(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("not a digit-limit error")

        monkeypatch.setitem(cli._HANDLERS, "obstruction", broken)
        with pytest.raises(ValueError, match="not a digit-limit error"):
            cli.main(["obstruction", "--genus", "1"])


_LIFT_RESIDUALS = pin_spin.lift_residuals


def _skewed_lift_residuals(g, target, conj_lift=None):
    """``lift_residuals`` with the conjugate lift's phase turned by 3e-10 rad."""
    c = g if conj_lift is None else conj_lift
    turned = DensePin(c.algebra, c.vectors, c.phase * np.exp(3e-10j))
    return _LIFT_RESIDUALS(g, target, turned)


class TestOneToleranceRule:
    """A lift residual passes by ``<= C2ALG_TOL`` in the CLI verdict and in verify alike."""

    def test_gap_above_the_tolerance_fails_the_verdict(self, capsys, tmp_path, monkeypatch):
        U = random_unitary(np.random.default_rng(2), 2)
        path = tmp_path / "u.json"
        path.write_text(json.dumps(matrix_to_json(U)), encoding="utf-8")
        monkeypatch.setattr(pin_spin, "lift_residuals", _skewed_lift_residuals)
        code, out, _ = run_cli(capsys, "phi-lift", "--unitary", str(path), "--json")
        report = json.loads(out)
        gap = report["residuals"]["real_equivariance"]
        assert 1e-12 < gap <= 1e-9
        assert (code, report["verdict"]) == (0, "pass")
        monkeypatch.setenv("C2ALG_TOL", "1e-12")
        code, out, _ = run_cli(capsys, "phi-lift", "--unitary", str(path), "--json")
        report = json.loads(out)
        assert (code, report["verdict"]) == (1, "fail")
        assert report["residuals"]["rho"] <= 1e-12 and report["residuals"]["unit"] <= 1e-12

    def test_gap_above_the_tolerance_fails_the_phi_check(self, monkeypatch):
        monkeypatch.setattr(verify, "lift_residuals", _skewed_lift_residuals)
        result = suite_phi(7, 4)
        assert result.passed
        assert 1e-12 < result.residuals["real_equivariance"] <= 1e-9
        monkeypatch.setenv("C2ALG_TOL", "1e-12")
        result = suite_phi(7, 4)
        assert result.failures == [f"phi Real equivariance case {i}" for i in range(4)]

    def test_spin_lift_check_covers_every_residual(self, monkeypatch):
        # a spin lift is compared with itself, so the turned phase shows as its bar gap
        monkeypatch.setattr(verify, "lift_residuals", _skewed_lift_residuals)
        assert suite_spin_lift(7, 2).passed
        monkeypatch.setenv("C2ALG_TOL", "1e-12")
        result = suite_spin_lift(7, 2)
        assert result.failures == ["spin lift residual case 0 (n=2)",
                                   "spin lift residual case 1 (n=3)"]
        assert result.checks == suite_spin_lift(7, 2).checks == 5


class TestToleranceBelowRounding:
    """A valid C2ALG_TOL below rounding error refuses inputs; it never ends in a traceback."""

    @pytest.mark.parametrize("command, flag, matrix", [
        ("spin-lift", "--matrix", [[0.0, -1.0], [1.0, 0.0]]),
        ("phi-lift", "--unitary", [[0.6 + 0.8j]])], ids=["spin-lift", "phi-lift"])
    def test_lift_exits_64_with_one_line(self, tmp_path, command, flag, matrix):
        # the lift is built, and its residuals are refused by the twisted adjoint
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(np.array(matrix))), encoding="utf-8")
        proc = run_module([command, flag, str(path)], {"C2ALG_TOL": "1e-20"})
        assert (proc.returncode, proc.stdout) == (64, b"")
        assert b"Traceback" not in proc.stderr
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: twisted adjoint")
        assert "C2ALG_TOL" in lines[0]

    def test_verify_fails_with_a_full_report(self):
        proc = run_module(["verify", "--suite", "pin-spin", "--cases", "3", "--json"],
                          {"C2ALG_TOL": "1e-16"})
        assert (proc.returncode, proc.stderr) == (1, b"")
        report = json.loads(proc.stdout)
        assert report["verdict"] == "fail"
        assert "spin-lift: spin lift case 0 (n=2): input is not orthogonal within tolerance" \
            in report["outputs"]["pin-spin"]["failures"]

    def test_refused_case_is_one_failed_check(self, monkeypatch):
        monkeypatch.setenv("C2ALG_TOL", "1e-16")
        spin = suite_spin_lift(7, 2)
        assert spin.failures[:2] == [
            "spin lift case 0 (n=2): input is not orthogonal within tolerance",
            "spin lift case 1 (n=3): input is not orthogonal within tolerance"]
        phi = suite_phi(7, 2)
        assert phi.checks == 2
        assert phi.failures == [
            "phi case 0 (n=1): input is not unitary within tolerance",
            "phi case 1 (n=2): input is not unitary within tolerance"]
        monkeypatch.setenv("C2ALG_TOL", "1e-300")  # refuses a rounded exact rotation too
        assert suite_spin_lift(1, 4).failures[-1] == \
            "spin lift round trip case 0: input is not orthogonal within tolerance"


class TestNanResidual:
    @pytest.mark.parametrize("values", [[float("nan")], [float("nan"), 1.0], [1.0, float("nan")]])
    def test_recorded_nan_stays(self, values):
        result = SuiteResult("x")
        for value in values:
            result.record_residual("r", value)
        assert np.isnan(result.to_json()["residuals"]["r"])

    def test_nan_residual_is_reported_and_fails(self, monkeypatch):
        def nan_rho(g, target, conj_lift=None):
            return {**pin_spin.lift_residuals(g, target, conj_lift), "rho": float("nan")}

        monkeypatch.setattr(verify, "lift_residuals", nan_rho)
        report = suite_spin_lift(7, 1).to_json()
        assert np.isnan(report["residuals"]["rho"])
        assert report["failures"] == ["spin lift residual case 0 (n=2)"]
        assert not report["passed"]


class TestRunVerifyApi:
    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError):
            run_verify("bogus", 0, 1)

    def test_report_shape(self):
        report = run_verify("mackey", 1, 5)
        assert set(report) == {"command", "inputs", "outputs", "residuals", "verdict"}
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("seed, other", [(7, 2**31 + 7), (-1, 2**31 - 1)])
    def test_seeds_have_their_own_spectral_streams(self, monkeypatch, seed, other):
        # seeds equal modulo 2^31 once shared the spectral draws, so every residual
        def spectral_run(s):
            drawn = []

            def recording(draw):
                def record(rng, n):
                    drawn.append(draw(rng, n))
                    return drawn[-1]
                return record

            for name in ("random_special_orthogonal", "random_unitary"):
                monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
            residuals = run_verify("pin-spin", s, 20)["residuals"]
            monkeypatch.undo()
            return drawn, {key: value for key, value in residuals.items()
                           if key.startswith(("pin-spin.spin-lift.", "pin-spin.phi."))}

        drawn, residuals = spectral_run(seed)
        other_drawn, other_residuals = spectral_run(other)
        assert len(drawn) == len(other_drawn) == 20 + 2 * 6
        assert not any(np.array_equal(a, b) for a, b in zip(drawn, other_drawn))
        assert len(residuals) == 10 and residuals != other_residuals

    def test_anagram_salts_have_their_own_spectral_streams(self):
        # a salt summed letter by letter once gave "paper-12" and "paper-21" one stream
        first, second = (verify.random_special_orthogonal(verify._rng(7, salt), 4)
                         for salt in ("paper-12", "paper-21"))
        assert not np.array_equal(first, second)


# Runs one command line (a list) under the real entry point, or imports one
# module (a string), in a fresh interpreter; prints the loaded module names.
_FOOTPRINT_PROBE = """\
import importlib, json, runpy, sys
target = json.loads(sys.argv[1])
if isinstance(target, str):
    importlib.import_module(target)
else:
    sys.argv = ["c2alg", *target]
    try:
        runpy.run_module("c2alg.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps(sorted(sys.modules)))
"""
_SUBMODULES = tuple(f"c2alg.{info.name}" for info in pkgutil.iter_modules(c2alg.__path__))
_NEVER = ("scipy", "sympy", "numpy.random")
_FORBIDDEN_IN_EXACT = ("numpy", "c2alg.linalg", "c2alg.pin_spin", "c2alg.funcalc",
                       "c2alg.verify", *_NEVER)
_FORBIDDEN_IN_LIFTS = ("c2alg.genus", "c2alg.mackey", "c2alg.funcalc", "c2alg.verify",
                       *_NEVER)
_ROTATION = json.dumps(matrix_to_json(np.array([[0.0, -1.0], [1.0, 0.0]])))
_PONTRYAGIN = json.dumps({"dim": 8, "pontryagin": {"1,1": "18/1", "2": "9/1"}})

# (module or command line, file text for "FILE", module trees it must not load)
FOOTPRINTS = [
    ("c2alg", None, _SUBMODULES + _NEVER),
    ("c2alg.cli", None, (*(m for m in _SUBMODULES if m not in ("c2alg.cli", "c2alg.scalars")),
                         "numpy", *_NEVER)),
    (["obstruction", "--genus", "-1/8"], None, _FORBIDDEN_IN_EXACT),
    (["ahat", "--manifold", "CP2 x CP2"], None, _FORBIDDEN_IN_EXACT),
    (["ahat", "--pontryagin", "FILE"], _PONTRYAGIN, _FORBIDDEN_IN_EXACT),
    (["clifford", "mul", "--signature", "2,1", "--a", "e1+e3", "--b", "e2"], None,
     _FORBIDDEN_IN_EXACT),
    (["clifford", "conj", "--signature", "2,1", "--a", "i*e1e3"], None, _FORBIDDEN_IN_EXACT),
    (["clifford", "star", "--signature", "2,1", "--a", "i*e1e3"], None, _FORBIDDEN_IN_EXACT),
    (["spin-lift", "--matrix", "FILE"], _ROTATION, _FORBIDDEN_IN_LIFTS),
    (["phi-lift", "--unitary", "FILE"], _ROTATION, _FORBIDDEN_IN_LIFTS),
    (["verify", "--suite", "functional-calculus", "--cases", "5"], None, _NEVER),
    (["verify", "--suite", "all", "--cases", "5"], None, _NEVER),
]


@pytest.mark.parametrize("target, text, forbidden", FOOTPRINTS,
                         ids=["import-c2alg", "import-cli", "obstruction", "ahat-manifold",
                              "ahat-pontryagin", "clifford-mul", "clifford-conj",
                              "clifford-star", "spin-lift", "phi-lift",
                              "verify-functional-calculus", "verify-all"])
def test_import_footprint(tmp_path, target, text, forbidden):
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        target = [str(path) if a == "FILE" else a for a in target]
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(target)],
                          capture_output=True, check=True, text=True, timeout=120)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "c2alg" in loaded
    assert [m for m in loaded
            if any(m == f or m.startswith(f + ".") for f in forbidden)] == []
