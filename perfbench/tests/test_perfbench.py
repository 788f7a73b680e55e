"""Tests of the benchmark harness itself (not part of the repository's tier-1 suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inproc  # noqa: E402
import oneshot  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def test_only_declared_metrics_are_printed():
    declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
    assert run.declared_metrics(declared, {"a_s": 1.5}, default=0) == {
        "a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 0, "unit": "count"}}
    with pytest.raises(RuntimeError, match="not declared in BENCHMARK.json: c"):
        run.declared_metrics(declared, {"a_s": 1.5, "c": 2}, default=0)
    with pytest.raises(RuntimeError, match="declared but not measured: b"):
        run.declared_metrics(declared, {"a_s": 1.5})


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)
        detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
        wall = statistics.median(detail["pass_wall_s"]["samples"])
        assert result["metrics"]["pass_s"]["value"] == pytest.approx(
            wall * detail["host_scale"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "exact-verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_spin_lift(monkeypatch):
    from c2alg import pin_spin

    original = pin_spin.spin_lift
    monkeypatch.setattr(pin_spin, "spin_lift", lambda R, *a, **k: original(R.T, *a, **k))


def _nan_residual(monkeypatch):
    from c2alg import pin_spin

    monkeypatch.setattr(pin_spin, "rho_residual", lambda g, R: float("nan"))


@pytest.mark.parametrize("inject", [_corrupt_spin_lift, _nan_residual])
def test_injected_lift_failure_is_counted_and_not_timed(monkeypatch, inject):
    workload = inproc.SpectralLift(seed=1, worker=0, size="quick")
    assert workload.run(workload.inputs(0))[1] == 0
    inject(monkeypatch)
    samples, _, attempted, failed = inproc.timed_passes(workload, seconds=0.0)
    assert attempted >= 1 and failed >= 1
    assert samples == []


def test_cli_checks_reject_wrong_outputs():
    good = "verdict: obstructed\nperiod: 4\nresidues: 1/32, 9/32, 17/32, 25/32\n"
    assert oneshot.check_obstruction(0, good)
    assert not oneshot.check_obstruction(0, good.replace("9/32", "7/32"))
    assert not oneshot.check_obstruction(1, good)

    lift = {"verdict": "pass", "residuals": {"rho": 1e-15, "unit": 2e-16}}
    assert oneshot.check_lift(0, json.dumps(lift))
    for bad in (1e-3, float("nan"), float("inf")):
        corrupted = dict(lift, residuals={"rho": bad, "unit": 2e-16})
        assert not oneshot.check_lift(0, json.dumps(corrupted))
    assert not oneshot.check_lift(0, json.dumps(dict(lift, verdict="fail")))
    assert not oneshot.check_lift(1, json.dumps(lift))
    assert not oneshot.check_lift(0, "Traceback (most recent call last):")

    assert oneshot.check_verify(0, json.dumps({"verdict": "pass"}))
    assert not oneshot.check_verify(0, json.dumps({"verdict": "fail"}))


def test_clifford_oracle_agrees_with_the_library():
    from c2alg import ccl, parse_multivector

    alg = ccl(*oneshot.SIGNATURE)
    rng = random.Random(5)
    for _ in range(30):
        a_terms, b_terms = {}, {}
        a = oneshot._expression(rng, a_terms)
        b = oneshot._expression(rng, b_terms)
        x, y = parse_multivector(a, alg), parse_multivector(b, alg)
        assert (x * y).serialized_terms() == oneshot.oracle_mul(a_terms, b_terms)
        assert x.bar().serialized_terms() == oneshot.oracle_conj(a_terms)


def test_tracer_counts_products_and_restores_the_library():
    from c2alg import ccl, clifford, verify

    original_mul = clifford.Multivector.__mul__
    original_suite = verify.SUITES["genus"]
    alg = ccl(2, 1)
    x = alg.parse("1/2*e1 + i*e2e3")
    y = alg.parse("e1 - 3*e3 + 2")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.SUITES["genus"] is not original_suite
        x * y
        x.to_numeric() * y
    finally:
        tracer.uninstall()
    assert clifford.Multivector.__mul__ is original_mul
    assert verify.SUITES["genus"] is original_suite
    metrics = tracing.layer_metrics(tracer.aggregate(), passes=1)
    assert metrics["clifford.mul_exact.calls"] == 1
    assert metrics["clifford.mul_exact.term_pairs"] == 6
    assert metrics["clifford.mul_numeric.calls"] == 1
    assert 0 < metrics["clifford.mul_exact.self_s"]


def test_import_time_parser_takes_scipy_subtrees_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.linalg._x",
        "import time:       100 |        150 |     scipy.linalg",
        "import time:        10 |        500 |   c2alg.pin_spin",
        "import time:        20 |        600 | c2alg.cli",
    ])
    assert run.parse_importtime(stderr) == pytest.approx((600e-6, 450e-6))


def test_curves_hold_only_top_level_calls_and_key_the_spin_c_path_apart():
    from c2alg import linalg, pin_spin

    R = inproc.random_special_orthogonal(np.random.default_rng(2), 4)
    U = inproc.random_unitary(np.random.default_rng(3), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pin_spin.rho_residual(pin_spin.spin_lift(R), R)
        # phi_lift calls spin_lift on a 4 x 4 matrix and realify inside it
        pin_spin.rho_residual(pin_spin.phi_lift(U), linalg.realify(U))
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["spans"]["pin_spin.spin_lift"]["calls"] == 2
    assert agg["spans"]["linalg.realify"]["calls"] == 2
    curves = {name: {n: len(samples) for n, samples in by_n.items()}
              for name, by_n in agg["curves"].items()}
    assert curves == {"pin_spin.spin_lift": {"4": 1}, "pin_spin.rho_residual": {"4": 1},
                      "pin_spin.phi_lift": {"2": 1}, "pin_spin.rho_residual_phi": {"2": 1},
                      "linalg.realify": {"0": 1}}
    metrics = tracing.layer_metrics(agg, passes=1)
    assert {"pin_spin.spin_lift_s.n4", "pin_spin.rho_residual_s.n4",
            "pin_spin.phi_lift_s.n2", "pin_spin.rho_residual_phi_s.n2",
            "linalg.realify_s"} <= set(metrics)
