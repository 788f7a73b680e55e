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
import contextlib
import gc
import json
import os
import sys

from .scalars import default_tol, quote_input, rational_from_string, rational_to_string

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_WITNESS = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _user_input(message=None):
    """Turn a ValueError raised in the block into UsageError(message, or its own text)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(message or str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    """The --seed value: any integer."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {quote_input(text)}") from None


def _case_count(text: str) -> int:
    """The --cases value: an integer from 0 to ``verify.MAX_CASES``."""
    from .verify import MAX_CASES

    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {quote_input(text)}")
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
    p_verify.add_argument("--seed", type=_seed, default=0)
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

    with _user_input():
        return matrix_from_json(_load_json_file(path))


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _cmd_clifford(args) -> int:
    from .clifford import bounded_product, ccl, parse_multivector

    with _user_input(f"bad signature {quote_input(args.signature)}; expected p,q"):
        p, q = map(int, args.signature.split(","))
    with _user_input():
        alg = ccl(p, q)
        a = parse_multivector(args.a, alg)
    if args.operation == "mul":
        if args.b is None:
            raise UsageError("mul requires --b")
        with _user_input():
            b = parse_multivector(args.b, alg)
            out = bounded_product(a, b)
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


def _format_float_coeff(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}*i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r} {sign} {abs(c.imag)!r}*i)"


def _lift_report(command: str, matrix, element, residuals: dict) -> dict:
    """Report of a ``DensePin`` lift; every nonzero entry of its half is a term.

    ``terms`` lists (mask, [re, im]) by mask, read from ``half`` and its
    ``masks``; ``expression`` writes the same entries through
    ``format_terms``, with float ``repr`` coefficients.
    """
    import numpy as np

    from .clifford import format_terms
    from .linalg import matrix_to_json

    tol = default_tol()
    nonzero = np.flatnonzero(element.half)
    support = element.masks[nonzero].tolist()
    coeffs = element.half[nonzero].tolist()
    return {
        "command": command,
        "inputs": {"matrix": matrix_to_json(matrix)},
        "outputs": {
            "expression": format_terms(zip(support, map(_format_float_coeff, coeffs))),
            "terms": [[m, [c.real, c.imag]] for m, c in zip(support, coeffs)],
            "parity": "even" if element.parity == 0 else "odd",
            "generator_convention": element.algebra.convention,
            "metadata": element.meta,
        },
        "residuals": residuals,
        "verdict": "pass" if all(v <= tol for v in residuals.values()) else "fail",
    }


def _emit_lift(args, command: str, matrix, element, residuals: dict) -> int:
    report = _lift_report(command, matrix, element, residuals)
    _emit(report, args.json, [
        f"lift: {report['outputs']['expression']}",
        *(f"residual {k}: {v:.3e}" for k, v in residuals.items()),
    ])
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def _cmd_spin_lift(args) -> int:
    from .pin_spin import lift_residuals, spin_lift

    M = _load_matrix(args.matrix)
    with _user_input():
        g = spin_lift(M)
        residuals = lift_residuals(g, M)
    return _emit_lift(args, "spin-lift", M, g, residuals)


def _cmd_phi_lift(args) -> int:
    import numpy as np

    from .linalg import realify
    from .pin_spin import lift_residuals, phi_lift

    U = _load_matrix(args.unitary)
    with _user_input():
        g = phi_lift(U)
        residuals = lift_residuals(g, realify(U), phi_lift(np.conj(U)))
    return _emit_lift(args, "phi-lift", U, g, residuals)


def _cmd_ahat(args) -> int:
    from . import genus

    if (args.manifold is None) == (args.pontryagin is None):
        raise UsageError("provide exactly one of --manifold or --pontryagin")
    if args.manifold is not None:
        with _user_input():
            spec = genus.ManifoldSpec.parse(args.manifold)
        data = spec.char_data()
        source = {"manifold": str(spec)}
    else:
        with _user_input():
            data = genus.CharClassData.from_json(_load_json_file(args.pontryagin))
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

    with _user_input(f"bad rational {quote_input(args.genus)}"):
        q = rational_from_string(args.genus)
    with _user_input():
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


def _merge_dash_arguments(argv):
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
        args = parser.parse_args(_merge_dash_arguments(list(argv)))
        with _user_input():
            default_tol()
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # str() of an exact result past Python's integer-string digit limit
        if "integer string conversion" not in str(exc):
            raise
        print("error: a result has more digits than can be printed", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


def run() -> int:
    """Entry point of the ``c2alg`` script and of ``python -m c2alg.cli``.

    Runs ``main``, then freezes every object left, so the collector's passes
    at interpreter shutdown skip them: 14 000 objects after an exact command,
    23 000 after one that loaded numpy and the spin modules. Objects are
    still freed by refcount, and atexit handlers and the flushes of the std
    streams still run. The freeze is here and not in ``main`` because
    in-process callers of ``main`` (the tests, perfbench's tracing shim) live
    on after it returns, and frozen objects are left out of every later
    collection.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
