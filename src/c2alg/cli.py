"""Command-line frontend: computations, lifts, genus values, verification suites.

Exit codes: 0 success/pass, 1 verification or tolerance failure, 2
obstruction-witness found, 64 usage error (bad arguments or malformed input).
A report whose reader has closed stdout (``c2alg verify --json | head``) is
dropped quietly with exit code 1.
Reports are deterministic for fixed arguments and seed; ``--json`` switches to
the stable machine-readable format.
Each handler imports what it runs, so the exact commands (``clifford``,
``ahat``, ``obstruction``) load neither numpy nor the spectral modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import default_tol, rational_from_string, rational_to_string

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_WITNESS = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _case_count(text: str) -> int:
    """The --cases value: an integer from 0 to ``verify.MAX_CASES``."""
    from .verify import MAX_CASES

    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    if count > MAX_CASES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CASES}")
    return count


def build_parser() -> _Parser:
    parser = _Parser(prog="c2alg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cliff = sub.add_parser("clifford", help="Clifford algebra arithmetic")
    p_cliff.add_argument("operation", choices=["mul", "conj", "star"])
    p_cliff.add_argument("--signature", required=True, metavar="p,q")
    p_cliff.add_argument("--a", required=True, metavar="EXPR")
    p_cliff.add_argument("--b", metavar="EXPR")
    p_cliff.add_argument("--json", action="store_true")

    p_spin = sub.add_parser("spin-lift", help="Spin lift of a special orthogonal matrix")
    p_spin.add_argument("--matrix", required=True, metavar="FILE")
    p_spin.add_argument("--json", action="store_true")

    p_phi = sub.add_parser("phi-lift", help="Spin^c lift of a unitary matrix")
    p_phi.add_argument("--unitary", required=True, metavar="FILE")
    p_phi.add_argument("--json", action="store_true")

    p_ahat = sub.add_parser("ahat", help="A-hat genus of a manifold class")
    p_ahat.add_argument("--manifold", metavar="SPEC")
    p_ahat.add_argument("--pontryagin", metavar="FILE")
    p_ahat.add_argument("--json", action="store_true")

    p_obs = sub.add_parser("obstruction", help="fixed-point integrality obstruction")
    p_obs.add_argument("--genus", required=True, metavar="Q")
    p_obs.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["clifford", "pin-spin", "genus", "mackey",
                                   "functional-calculus", "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=_case_count, default=100)
    p_verify.add_argument("--json", action="store_true")
    return parser


def _emit(report: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)
    sys.stdout.flush()  # a closed stdout raises here, inside main, not at exit


def _load_matrix(path: str):
    from .linalg import matrix_from_json

    try:
        return matrix_from_json(_load_json_file(path))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _cmd_clifford(args) -> int:
    from .clifford import ccl, parse_multivector

    try:
        p_str, q_str = args.signature.split(",")
        p, q = int(p_str), int(q_str)
    except ValueError as exc:
        raise UsageError(f"bad signature {args.signature!r}; expected p,q") from exc
    try:
        alg = ccl(p, q)
        a = parse_multivector(args.a, alg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.operation == "mul":
        if args.b is None:
            raise UsageError("mul requires --b")
        try:
            b = parse_multivector(args.b, alg)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        out = a * b
    elif args.operation == "conj":
        out = a.bar()
    else:
        out = a.star()
    report = {
        "command": f"clifford {args.operation}",
        "inputs": {"signature": [p, q], "a": args.a, "b": args.b},
        "outputs": {
            "expression": str(out),
            "terms": out.serialized_terms(),
            "generator_convention": alg.convention,
        },
        "residuals": {},
        "verdict": "value",
    }
    _emit(report, args.json, [str(out)])
    return EXIT_OK


def _lift_report(command: str, matrix, element, residuals: dict) -> dict:
    from .linalg import matrix_to_json

    tol = default_tol()
    value = element.algebra.from_dense(element.values)
    return {
        "command": command,
        "inputs": {"matrix": matrix_to_json(matrix)},
        "outputs": {
            "expression": str(value),
            "terms": value.serialized_terms(),
            "parity": "even" if element.parity == 0 else "odd",
            "generator_convention": element.algebra.convention,
            "metadata": element.meta,
        },
        "residuals": residuals,
        "verdict": "pass" if all(v <= tol for v in residuals.values()) else "fail",
    }


def _cmd_spin_lift(args) -> int:
    import numpy as np

    from .pin_spin import rho_residual, spin_lift, unit_residual

    M = _load_matrix(args.matrix)
    try:
        R = np.asarray(M.real, dtype=float)
        if np.max(np.abs(M.imag)) > 0:
            raise ValueError("spin-lift expects a real matrix")
        g = spin_lift(R)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    residuals = {
        "rho": rho_residual(g, R),
        "unit": unit_residual(g),
        "real_equivariance": float(np.max(np.abs(g.values - g.algebra.dense_bar(g.values)))),
    }
    report = _lift_report("spin-lift", M, g, residuals)
    _emit(report, args.json, [
        f"lift: {report['outputs']['expression']}",
        *(f"residual {k}: {v:.3e}" for k, v in residuals.items()),
    ])
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def _cmd_phi_lift(args) -> int:
    import numpy as np

    from .linalg import realify
    from .pin_spin import phi_lift, rho_residual, unit_residual

    U = _load_matrix(args.unitary)
    try:
        g = phi_lift(U)
        conj_lift = phi_lift(np.conj(U))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    residuals = {
        "rho": rho_residual(g, realify(U)),
        "unit": unit_residual(g),
        "real_equivariance": float(
            np.max(np.abs(conj_lift.values - g.algebra.dense_bar(g.values)))),
    }
    report = _lift_report("phi-lift", U, g, residuals)
    _emit(report, args.json, [
        f"lift: {report['outputs']['expression']}",
        *(f"residual {k}: {v:.3e}" for k, v in residuals.items()),
    ])
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def _cmd_ahat(args) -> int:
    from . import genus

    if (args.manifold is None) == (args.pontryagin is None):
        raise UsageError("provide exactly one of --manifold or --pontryagin")
    if args.manifold is not None:
        try:
            spec = genus.ManifoldSpec.parse(args.manifold)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        data = spec.char_data()
        source = {"manifold": str(spec)}
    else:
        try:
            data = genus.CharClassData.from_json(_load_json_file(args.pontryagin))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        source = {"pontryagin": data.to_json()}
    value = genus.genus_evaluate(genus.ahat_sequence(), data)
    report = {
        "command": "ahat",
        "inputs": source,
        "outputs": {"ahat": rational_to_string(value), "char_data": data.to_json()},
        "residuals": {},
        "verdict": "value",
    }
    _emit(report, args.json, [str(value)])
    return EXIT_OK


def _cmd_obstruction(args) -> int:
    from . import mackey

    try:
        q = rational_from_string(args.genus)
    except ValueError as exc:
        raise UsageError(f"bad rational {args.genus!r}") from exc
    cert = mackey.fixed_point_obstruction(q)
    report = {
        "command": "obstruction",
        "inputs": {"genus": rational_to_string(q)},
        "outputs": cert.to_json(),
        "residuals": {},
        "verdict": "obstructed" if cert.obstructed else "witness",
    }
    lines = [f"verdict: {cert.verdict}",
             f"period: {cert.period}",
             "residues: " + ", ".join(str(r) for r in cert.residues)]
    _emit(report, args.json, lines)
    return EXIT_OK if cert.obstructed else EXIT_WITNESS


def _cmd_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(args.suite, args.seed, args.cases)
    lines = []
    for name, out in report["outputs"].items():
        status = "PASS" if out["passed"] else "FAIL"
        lines.append(f"{name}: checks={out['checks']} failures={len(out['failures'])} {status}")
        for failure in out["failures"]:
            lines.append(f"  failed: {failure}")
    lines.append(f"verdict: {report['verdict']} (seed={args.seed}, cases={args.cases})")
    _emit(report, args.json, lines)
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


_HANDLERS = {
    "clifford": _cmd_clifford,
    "spin-lift": _cmd_spin_lift,
    "phi-lift": _cmd_phi_lift,
    "ahat": _cmd_ahat,
    "obstruction": _cmd_obstruction,
    "verify": _cmd_verify,
}


_DASH_VALUE_OPTIONS = {"--genus", "--a", "--b"}


def _merge_dash_values(argv):
    """Join option values that begin with '-' (e.g. --genus -1/8) using '='."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token in _DASH_VALUE_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and argv[i + 1] not in _DASH_VALUE_OPTIONS
                and not argv[i + 1].startswith("--")):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
        try:
            default_tol()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
