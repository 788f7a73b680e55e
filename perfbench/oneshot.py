"""The cli-oneshot workload: fresh-interpreter `python -m c2alg.cli` commands.

One pass (a round) runs seven commands one after another, closed loop, one
client: four short commands, two lifts and one `verify`. Inputs come from
(seed, round); every command's output is checked before it counts. The
reference kernel (inproc.reference_seconds) is timed before each command.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from inproc import random_special_orthogonal, random_unitary, reference_seconds, within_tol

SIGNATURE = (3, 3)  # CCl(3,3): all squares +1, bar negates e4..e6
LIFT_SIZES = {"full": (9, 4), "quick": (4, 2)}  # SO(n) for spin-lift, U(n) for phi-lift
VERIFY_CASES = {"full": None, "quick": 5}  # None: the CLI default
SHORT, LIFT, VERIFY = "short", "lift", "verify"
OBSTRUCTION_RESIDUES = "residues: 1/32, 9/32, 17/32, 25/32"
TRACE_SHIM = Path(__file__).resolve().parent / "tracing.py"


# -- an independent oracle for CCl(3,3) products and the Real structure -----------


def _reorder_sign(a: int, b: int) -> int:
    swaps = 0
    a >>= 1
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def _expression(rng, terms: dict) -> str:
    """A random CCl(3,3) expression in the CLI grammar; its terms are added to
    ``terms`` as {mask: (re, im)}."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1 << sum(SIGNATURE))
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(0)
        if rng.random() < 0.5:
            im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if not re and not im:
            re = Fraction(1)
        old = terms.get(mask, (Fraction(0), Fraction(0)))
        terms[mask] = (old[0] + re, old[1] + im)
        blade = "".join(f"e{i + 1}" for i in range(sum(SIGNATURE)) if mask >> i & 1)
        coeff = f"({re} + {im}*i)"
        parts.append(f"{coeff}*{blade}" if blade else coeff)
    return " + ".join(parts)


def _serialized(terms: dict) -> list:
    return [[m, [f"{re.numerator}/{re.denominator}", f"{im.numerator}/{im.denominator}"]]
            for m, (re, im) in sorted(terms.items()) if re or im]


def oracle_mul(a: dict, b: dict) -> list:
    out: dict = {}
    for m1, (r1, i1) in a.items():
        for m2, (r2, i2) in b.items():
            s = _reorder_sign(m1, m2)
            r, i = out.get(m1 ^ m2, (Fraction(0), Fraction(0)))
            out[m1 ^ m2] = (r + s * (r1 * r2 - i1 * i2), i + s * (r1 * i2 + i1 * r2))
    return _serialized(out)


def oracle_conj(a: dict) -> list:
    negated = ((1 << sum(SIGNATURE)) - 1) ^ ((1 << SIGNATURE[0]) - 1)
    out = {}
    for m, (re, im) in a.items():
        s = -1 if bin(m & negated).count("1") & 1 else 1
        out[m] = (s * re, -s * im)
    return _serialized(out)


# -- inputs and checks ---------------------------------------------------------------


def _matrix_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"rows": M.shape[0], "cols": M.shape[1],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in M]}


def round_commands(seed: int, index: int, work: Path, size: str):
    """[(kind, cli args, check(returncode, stdout) -> bool)] for one round."""
    rng = random.Random(f"perfbench-cli:{seed}:{index}")
    nrng = np.random.default_rng([seed, index])
    so_n, u_n = LIFT_SIZES[size]
    so_path = work / f"so{so_n}-{index}.json"
    u_path = work / f"u{u_n}-{index}.json"
    so_path.write_text(json.dumps(_matrix_json(random_special_orthogonal(nrng, so_n))))
    u_path.write_text(json.dumps(_matrix_json(random_unitary(nrng, u_n))))
    a_terms, b_terms = {}, {}
    a, b = _expression(rng, a_terms), _expression(rng, b_terms)
    signature = ",".join(map(str, SIGNATURE))
    verify = ["verify", "--suite", "all", "--seed", str(seed), "--json"]
    if VERIFY_CASES[size] is not None:
        verify += ["--cases", str(VERIFY_CASES[size])]
    return [
        (SHORT, ["obstruction", "--genus", "-1/8"], check_obstruction),
        (SHORT, ["ahat", "--manifold", "CP2 x CP2"],
         lambda code, out: code == 0 and out.strip() == "1/64"),
        (SHORT, ["clifford", "mul", "--signature", signature, "--a", a, "--b", b, "--json"],
         lambda code, out: code == 0 and _terms(out) == oracle_mul(a_terms, b_terms)),
        (SHORT, ["clifford", "conj", "--signature", signature, "--a", a, "--json"],
         lambda code, out: code == 0 and _terms(out) == oracle_conj(a_terms)),
        (LIFT, ["spin-lift", "--matrix", str(so_path), "--json"], check_lift),
        (LIFT, ["phi-lift", "--unitary", str(u_path), "--json"], check_lift),
        (VERIFY, verify, check_verify),
    ]


def _terms(stdout: str):
    try:
        return json.loads(stdout)["outputs"]["terms"]
    except (ValueError, KeyError, TypeError):
        return None


def check_obstruction(code: int, stdout: str) -> bool:
    lines = stdout.splitlines()
    return code == 0 and "verdict: obstructed" in lines and OBSTRUCTION_RESIDUES in lines


def check_lift(code: int, stdout: str) -> bool:
    try:
        report = json.loads(stdout)
        residuals = list(report["residuals"].values())
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    return (code == 0 and report.get("verdict") == "pass" and bool(residuals)
            and all(isinstance(r, float) and within_tol(r) for r in residuals))


def check_verify(code: int, stdout: str) -> bool:
    try:
        return code == 0 and json.loads(stdout)["verdict"] == "pass"
    except (ValueError, KeyError, TypeError):
        return False


# -- running ----------------------------------------------------------------------------


def run_command(args: list[str], env: dict, deadline: float, traced_out: Path | None = None):
    """Run one CLI command in a fresh interpreter, killed at the time.monotonic()
    deadline; returns (seconds, code, stdout)."""
    if traced_out is None:
        argv = [sys.executable, "-m", "c2alg.cli", *args]
    else:
        argv = [sys.executable, str(TRACE_SHIM), str(traced_out), *args]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=deadline - time.monotonic(), check=False)
    elapsed = time.perf_counter() - start
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return elapsed, proc.returncode, proc.stdout


class Round:
    """Outcome of one round: seconds per command kind, reference kernel
    seconds, ops, verify hashes."""

    def __init__(self):
        self.seconds = {SHORT: [], LIFT: [], VERIFY: []}
        self.references: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.verify_hashes: list[str] = []
        self.traces: list[Path] = []

    @property
    def total(self) -> float:
        return sum(sum(v) for v in self.seconds.values())


def run_round(commands, env: dict, deadline: float, traced_dir: Path | None = None) -> Round:
    result = Round()
    for i, (kind, args, check) in enumerate(commands):
        out_path = None if traced_dir is None else traced_dir / f"trace-{i}.json"
        result.references.append(reference_seconds())
        elapsed, code, stdout = run_command(args, env, deadline, out_path)
        result.attempted += 1
        ok = check(code, stdout)
        result.failed += not ok
        result.seconds[kind].append(elapsed)
        if kind == VERIFY:
            result.verify_hashes.append(hashlib.sha256(stdout.encode()).hexdigest())
        if out_path is not None:
            result.traces.append(out_path)
    return result
