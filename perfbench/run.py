"""Benchmark of c2alg: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 25 --trace 0

Workloads (see README.md): exact-verify, spectral-lift, cli-oneshot. With
--trace 0 the last stdout line holds the end-to-end metrics, their times in
reference seconds (inproc.REFERENCE_S); with --trace 1 it holds the
per-layer metrics of a separate traced run. The line before it
records the environment and the run's detail. Load is one closed-loop client:
one process at a time, no threads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Workloads and every metric's name and unit are declared there, and only there.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_REPEATS = 3  # set-up samples per run; in-process workloads use one worker each
RUN_BUDGET_S = 170  # every child is killed by then, so a run always ends in time
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def summary(samples) -> dict:
    samples = list(samples)
    out = {"n": len(samples), "samples": samples}
    if len(samples) >= 2:
        out.update(zip(("q1", "median", "q3"), statistics.quantiles(samples, n=4)))
    return out


def peak_child_rss_mib() -> float:
    """Largest peak RSS among the child processes waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- cli.import_s / cli.import_scipy_s --------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds to import c2alg.cli, seconds of it spent in scipy subtrees)."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e6))
    total = next((cum for _, name, cum in rows if name == "c2alg.cli"), 0.0)
    scipy = 0.0
    ancestors: list = []  # walking backwards visits parents before children
    for depth, name, cum in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            scipy += cum
        ancestors.append((depth, is_scipy))
    return total, scipy


def import_probe(deadline: float, repeats: int = 3) -> dict:
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import c2alg.cli"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=deadline - time.monotonic(), check=True)
        total, scipy = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return {"cli.import_s": statistics.median(totals),
            "cli.import_scipy_s": statistics.median(scipys)}


# -- workloads --------------------------------------------------------------------------


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def run_inproc(args, work: Path, deadline: float) -> RunResult:
    """exact-verify / spectral-lift: fresh worker processes, run one after another."""
    result = RunResult()
    workers = 1 if args.trace else SETUP_REPEATS
    reports = []
    for k in range(workers):
        cmd = [sys.executable, str(HERE / "inproc.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--worker", str(k),
               "--seconds", repr(args.seconds / workers)]
        if args.trace:
            cmd.append("--trace")
        if args.quick:
            cmd.append("--quick")
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=deadline - time.monotonic(), check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    result.attempted = sum(r["attempted"] for r in reports)
    result.failed = sum(r["failed"] for r in reports)
    if args.trace:
        result.metrics = reports[0]["layers"]
        result.detail["traced_passes"] = reports[0]["passes"]
        return result
    samples = [s for r in reports for s in r["samples"]]
    setups = [r["setup_s"] for r in reports]
    if not samples:
        raise RuntimeError("no pass completed without a failed operation")
    scale = inproc.host_scale([t for r in reports for t in r["references"]])
    result.metrics = {"pass_s": statistics.median(samples) * scale,
                      "setup_s": statistics.median(setups) * scale,
                      "peak_rss_mib": peak_child_rss_mib()}
    result.detail.update(host_scale=scale, pass_wall_s=summary(samples), setup_wall_s=setups)
    return result


def run_cli(args, work: Path, deadline: float) -> RunResult:
    """cli-oneshot: rounds of seven fresh-interpreter commands, one at a time."""
    import oneshot
    import tracing

    size = "quick" if args.quick else "full"
    env = child_env()
    result = RunResult()
    setups, warm = [], []
    for _ in range(SETUP_REPEATS):
        # set-up: write one round's inputs, then prime bytecode and file caches
        # with one checked command
        start = time.perf_counter()
        commands = oneshot.round_commands(args.seed, 0, work, size)
        written = time.perf_counter() - start
        warm.append(oneshot.run_round(commands[:1], env, deadline))
        setups.append(written + warm[-1].total)

    rounds, traced = [], []
    stop = time.perf_counter() + args.seconds
    index = 0
    while not rounds or time.perf_counter() < stop:
        # a traced run repeats round 0's inputs, so counts per round are exact
        commands = oneshot.round_commands(args.seed, 0 if args.trace else index, work, size)
        plans = [None]
        if args.trace:  # alternate which of the pair runs first
            traced_dir = work / f"round-{index}"
            traced_dir.mkdir()
            plans = [None, traced_dir] if index % 2 == 0 else [traced_dir, None]
        for trace_dir in plans:
            outcome = oneshot.run_round(commands, env, deadline, trace_dir)
            (rounds if trace_dir is None else traced).append(outcome)
        index += 1

    scale = inproc.host_scale([t for r in warm + rounds for t in r.references])
    hashes = {h for r in rounds + traced for h in r.verify_hashes}
    mismatch = len(hashes) > 1
    result.attempted = sum(r.attempted for r in warm + rounds + traced)
    result.failed = sum(r.failed for r in warm + rounds + traced) + mismatch
    good = [r for r in rounds if not r.failed]
    if not good:
        raise RuntimeError("no round completed without a failed command")
    per_kind = {kind: [s for r in good for s in r.seconds[kind]]
                for kind in (oneshot.SHORT, oneshot.LIFT, oneshot.VERIFY)}
    lift_pairs = [sum(r.seconds[oneshot.LIFT]) for r in good]
    result.detail.update(
        verify_sha256=sorted(hashes), determinism_mismatch=mismatch, host_scale=scale,
        pass_wall_s=summary([r.total for r in good]), setup_wall_s=setups,
        short_cmd_s=summary(per_kind[oneshot.SHORT]), lift_cmd_s=summary(lift_pairs),
        verify_cmd_s=summary(per_kind[oneshot.VERIFY]))
    if not args.trace:
        result.metrics = {"pass_s": statistics.median(r.total for r in good) * scale,
                          "setup_s": statistics.median(setups) * scale,
                          "peak_rss_mib": peak_child_rss_mib()}
        return result

    aggregates = [json.loads(path.read_text()) for r in traced for path in r.traces]
    layers = tracing.layer_metrics(tracing.merge(aggregates), len(traced))
    entries = sum(a["cache_entries"] for a in aggregates)
    pairs = sum(tracing.term_pairs(a) for a in aggregates)
    layers.update(tracing.cache_metrics(entries // len(traced), pairs // len(traced)))
    layers.update({
        "cli.short_cmd_s": statistics.median(per_kind[oneshot.SHORT]),
        "cli.lift_cmd_s": statistics.median(lift_pairs),
        "cli.verify_cmd_s": statistics.median(per_kind[oneshot.VERIFY]),
        "trace.overhead_ratio": statistics.median(
            t.total / r.total for r, t in zip(rounds, traced)),
    })
    result.metrics = layers
    result.detail["traced_passes"] = len(traced)
    return result


def declared_metrics(declared: list, values: dict, default=None) -> dict:
    """{name: {"value", "unit"}} for every declared metric. With ``default``
    set, a metric missing from ``values`` (a layer the workload never reaches)
    reads it. A value under an undeclared name is an error."""
    units = {m["name"]: m["unit"] for m in declared}
    problems = [f"{what}: {', '.join(sorted(names))}" for what, names in (
        ("not declared in BENCHMARK.json", set(values) - set(units)),
        ("declared but not measured", set(units) - set(values) if default is None else ()),
    ) if names]
    if problems:
        raise RuntimeError("; ".join(problems))
    return {name: {"value": values.get(name, default), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads here or in any child process
        os.environ[var] = "1"
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "c2alg" / "__init__.py").is_file():
        print(f"error: no c2alg sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = run_cli if args.workload == "cli-oneshot" else run_inproc
        deadline = time.monotonic() + RUN_BUDGET_S
        result = runner(args, work, deadline)
        if args.trace:
            sys.path.insert(0, str(SRC))
            result.metrics.update(import_probe(deadline))
            result.metrics.update(inproc.scalar_microkernels(args.seed))
            metrics = declared_metrics(SPEC["per_layer"], result.metrics, default=0)
        else:
            metrics = declared_metrics(SPEC["end_to_end"], result.metrics)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment(), "detail": result.detail}))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
