"""In-process workloads (exact-verify, spectral-lift) and the worker that times them.

A worker is one fresh interpreter started by run.py:

    python perfbench/inproc.py --workload exact-verify --seed 1 --worker 0 \
        --seconds 8 --t0 <time.monotonic() at spawn> [--trace] [--quick]

It imports c2alg and runs one warm-up pass, which finishes lazy set-up and,
on spectral-lift, fills the per-algebra blade caches (exact-verify warms up
at 10 cases). The time since spawn is its set-up time. It then runs timed
passes until --seconds have elapsed; every pass draws fresh inputs from
(seed, worker, pass index), and the reference kernel is timed before each
pass. With --trace it reports per-layer metrics instead (see
traced_worker). Its last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

TOL = 1e-9
WARMUP = 999  # pass index of the warm-up pass; timed passes count from 0

# Host speed on a shared machine swings by half or more for minutes at a time,
# for every process alike. Each run therefore times a fixed pure-Python kernel
# that uses no c2alg code, interleaved with its work, and reports its times as
# "reference seconds": wall seconds * REFERENCE_S / median kernel time. A
# change to c2alg moves them fully; a change in host speed cancels out.
REFERENCE_S = 0.06  # about the kernel's median on a 2.1 GHz Xeon vCPU

# exact-verify: the mix `c2alg verify --cases N` uses (suite, divisor of N)
EXACT_MIX = (("suite_clifford", 1), ("suite_rho", 1), ("suite_pin_kernel", 5),
             ("suite_genus", 1), ("suite_mackey", 1), ("suite_functional_calculus", 1))
EXACT_CASES = {"full": 100, "quick": 5}
EXACT_WARMUP_CASES = 10  # enough to finish lazy set-up (sympy rings, genus caches)

# spectral-lift: (n, matrices per pass); the largest n dominates a pass
SPECTRAL_SIZES = {
    "full": {"so": ((4, 4), (6, 4), (8, 6), (9, 3)),
             "u": ((2, 3), (3, 3), (4, 3)), "retraction": 4, "sqrt": 4},
    "quick": {"so": ((4, 1), (6, 1)), "u": ((2, 1),), "retraction": 1, "sqrt": 1},
}


def within_tol(value) -> bool:
    """NaN-safe tolerance check: NaN and infinities fail."""
    return value <= TOL


# The two generators below repeat c2alg.verify's on purpose: they freeze the
# benchmark's inputs, so a change to the library's generators cannot change
# what a later commit is measured on.


def reference_seconds() -> float:
    """Wall seconds of the fixed reference kernel: dict, integer, complex and
    Fraction work in the interpreter, the kinds c2alg's workloads do."""
    start = time.perf_counter()
    table: dict = {}
    total, z, q = 0, 0j, Fraction(0)
    for i in range(60_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        total += key * key % 13
        z = z * (0.6 + 0.3j) + key
        if i % 4 == 0:
            q += Fraction(key, 1 + i % 9)
    return time.perf_counter() - start


def host_scale(reference_samples) -> float:
    """Factor from wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(reference_samples)


def random_special_orthogonal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.where(np.diag(R) < 0, -1.0, 1.0)
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


def random_unitary(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


class ExactVerify:
    """One pass runs the exact suites of `verify` at N cases; an op is one suite."""

    def __init__(self, seed: int, worker: int, size: str):
        self.seed, self.worker = seed, worker
        self.cases = EXACT_CASES[size]

    def inputs(self, index: int):
        cases = min(EXACT_WARMUP_CASES, self.cases) if index == WARMUP else self.cases
        return (self.seed * 10 + self.worker) * 1000 + index, cases

    def run(self, inputs) -> tuple[int, int]:
        from c2alg import verify

        sub_seed, cases = inputs
        failed = 0
        for name, divisor in EXACT_MIX:
            result = getattr(verify, name)(sub_seed, max(1, cases // divisor))
            failed += not result.passed
        return len(EXACT_MIX), failed


class SpectralLift:
    """One pass sweeps seeded SO(n) and U(n) matrices through the spectral lifts,
    plus fixed-point retractions and symmetric-unitary square roots."""

    def __init__(self, seed: int, worker: int, size: str):
        self.seed, self.worker = seed, worker
        self.sizes = SPECTRAL_SIZES[size]

    def inputs(self, index: int):
        rng = np.random.default_rng([self.seed, self.worker, index])
        so = [random_special_orthogonal(rng, n)
              for n, count in self.sizes["so"] for _ in range(count)]
        u = [random_unitary(rng, n) for n, count in self.sizes["u"] for _ in range(count)]
        orbits = []
        for i in range(self.sizes["retraction"]):
            n = 1 + i % 4
            frame = np.linalg.qr(rng.standard_normal((n + 4, n)))[0]
            U = random_unitary(rng, n)
            orbits.append((frame @ U.conj().T, U @ rng.standard_normal(n)))
        symmetric = []
        for i in range(self.sizes["sqrt"]):
            O = random_special_orthogonal(rng, 2 + i % 4)
            phases = np.exp(1j * rng.uniform(-math.pi, math.pi, O.shape[0]))
            symmetric.append((O * phases) @ O.T)
        return so, u, orbits, symmetric

    def run(self, inputs) -> tuple[int, int]:
        from c2alg import linalg, pin_spin

        so, u, orbits, symmetric = inputs
        attempted = failed = 0

        def check(op):
            nonlocal attempted, failed
            attempted += 1
            try:
                ok = all(within_tol(r) for r in op())
            except ValueError:
                ok = False
            failed += not ok

        def lift_residuals(g, R):
            return pin_spin.rho_residual(g, R), pin_spin.unit_residual(g)

        for R in so:
            check(lambda R=R: lift_residuals(pin_spin.spin_lift(R), R))
        for U in u:
            check(lambda U=U: lift_residuals(pin_spin.phi_lift(U), linalg.realify(U)))
        for x, y in orbits:
            check(lambda x=x, y=y: linalg.fixed_point_retraction(x, y).residuals.values())
        for S in symmetric:
            check(lambda S=S: linalg.symmetric_unitary_sqrt(S).residuals.values())
        return attempted, failed


WORKLOADS = {"exact-verify": ExactVerify, "spectral-lift": SpectralLift}


def timed_passes(workload, seconds: float):
    """Run passes until `seconds` elapse (at least one).

    Returns (pass seconds of passes with no failed op, reference kernel
    seconds, attempted, failed): a pass with a failed op is counted, never
    timed as a success.
    """
    samples, references, attempted, failed = [], [], 0, 0
    index = 0
    deadline = time.perf_counter() + seconds
    while True:
        references.append(reference_seconds())
        inputs = workload.inputs(index)
        start = time.perf_counter()
        a, f = workload.run(inputs)
        elapsed = time.perf_counter() - start
        attempted += a
        failed += f
        if not f:
            samples.append(elapsed)
        index += 1
        if time.perf_counter() >= deadline:
            return samples, references, attempted, failed


def traced_worker(workload, seconds: float) -> dict:
    """Layer metrics: a traced cold pass for cache counts, then untraced and
    traced passes, alternating which goes first. Every pass, the cold one too,
    runs on the full-size inputs of pass 0, so counts per pass are exact and
    the overhead compares equal work."""
    import tracing

    inputs = workload.inputs(0)
    tracer = tracing.Tracer()
    tracer.install()
    attempted, failed = workload.run(inputs)
    cold = tracer.aggregate()
    layers = tracing.cache_metrics(tracer.cache_entries(), tracing.term_pairs(cold))
    tracer.clear()
    tracer.uninstall()

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.install()
            start = time.perf_counter()
            a, f = workload.run(inputs)
            elapsed = time.perf_counter() - start
            if with_trace:
                tracer.uninstall()
            attempted += a
            failed += f
            (traced if with_trace else plain).append(elapsed)
    layers.update(tracing.layer_metrics(tracer.aggregate(), len(traced)))
    layers["trace.overhead_ratio"] = statistics.median(
        t / p for p, t in zip(plain, traced))  # pairs are adjacent, so drift cancels
    return {"layers": layers, "attempted": attempted, "failed": failed,
            "passes": len(traced)}


def worker_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import c2alg  # noqa: F401  (import cost belongs to set-up)

    workload = WORKLOADS[args.workload](args.seed, args.worker,
                                        "quick" if args.quick else "full")
    if args.trace:
        report = traced_worker(workload, args.seconds)
    else:
        attempted, failed = workload.run(workload.inputs(WARMUP))
        setup_s = time.monotonic() - args.t0
        samples, references, a, f = timed_passes(workload, args.seconds)
        report = {"setup_s": setup_s, "samples": samples, "references": references,
                  "attempted": attempted + a, "failed": failed + f}
    print(json.dumps(report))
    return 0


def scalar_microkernels(seed: int) -> dict:
    """ns per GaussianRational mul/add on operands from verify.rand_coeff, and
    us per RatFunc mul on the functional-calculus generators' coefficients."""
    from c2alg import funcalc, verify

    rng = random.Random(f"perfbench-scalars:{seed}")
    pairs = [(verify.rand_coeff(rng), verify.rand_coeff(rng)) for _ in range(2000)]
    by_nvars: dict = {}
    for element in (*funcalc.s_generators(), funcalc.comultiplication("a"),
                    funcalc.comultiplication("b")):
        for f in element.terms.values():
            by_nvars.setdefault(f.nvars, []).append(f)
    groups = list(by_nvars.values())
    rat_pairs = []
    for _ in range(100):
        group = groups[rng.randrange(len(groups))]
        rat_pairs.append((rng.choice(group), rng.choice(group)))

    def per_op(op, operands, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in operands:
                op(a, b)
            times.append((time.perf_counter() - start) / len(operands))
        return statistics.median(times)

    return {
        "scalars.gaussian_mul_ns": per_op(lambda a, b: a * b, pairs, 9) * 1e9,
        "scalars.gaussian_add_ns": per_op(lambda a, b: a + b, pairs, 9) * 1e9,
        "scalars.ratfunc_mul_us": per_op(lambda a, b: a * b, rat_pairs, 5) * 1e6,
    }


if __name__ == "__main__":
    sys.exit(worker_main())
