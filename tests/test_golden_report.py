"""The exact part of the seed-7 ``verify --suite all`` report, pinned to a golden copy.

The exact part is every suite's check count, failure list and verdict, plus
the full sections of the exact suites (clifford, genus, mackey,
functional-calculus). Exact data has no rounding, so a change to the exact
kernels must leave it unchanged. The pin-spin residuals are spectral floats
and are left out. The copy was captured from the report of the sparse
``Fraction`` pair loop, before products moved to integer numerators.
"""

from c2alg.verify import run_verify

_EXACT_SECTION = {"checks": None, "failures": [], "passed": True, "residuals": {}}

GOLDEN = {
    "inputs": {"cases": 100, "seed": 7, "suite": "all"},
    "outputs": {
        "clifford": {**_EXACT_SECTION, "checks": 1140},
        "functional-calculus": {**_EXACT_SECTION, "checks": 310},
        "genus": {**_EXACT_SECTION, "checks": 315},
        "mackey": {**_EXACT_SECTION, "checks": 409},
        "pin-spin": {"checks": 627, "failures": [], "passed": True},
    },
    "verdict": "pass",
}


def exact_part(report: dict) -> dict:
    outputs = dict(report["outputs"])
    outputs["pin-spin"] = {k: outputs["pin-spin"][k] for k in ("checks", "failures", "passed")}
    return {"inputs": report["inputs"], "outputs": outputs, "verdict": report["verdict"]}


def test_seed7_exact_part_matches_golden():
    assert exact_part(run_verify("all", 7, 100)) == GOLDEN
