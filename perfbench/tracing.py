"""Span tracing around c2alg's public callables, built only from this directory.

``Tracer.install()`` replaces each traced callable with a wrapper in every
loaded ``c2alg`` module namespace and module-level registry that holds it,
plus ``Multivector.__mul__`` and ``PinElement.__init__`` on their classes.
Each call records one span (name, start, end, parent, argument) in flat
arrays that stay in memory until ``aggregate()`` derives calls, inclusive
time and self time (inclusive minus the time covered by child spans).

``Multivector.__mul__`` is counted as ``clifford.mul_exact`` or
``clifford.mul_numeric`` with its term pairs (|a| * |b|) counted in the
wrapper, so ``blade_product`` itself is never wrapped.

Run as a script, it is the traced-CLI shim used by the cli-oneshot workload:

    python perfbench/tracing.py OUT.json <c2alg cli arguments...>

which runs ``c2alg.cli.main`` under the tracer and writes the aggregate to
OUT.json; stdout and the exit code are the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

# (module, attribute, span name, classify(*args) -> recorded argument); every
# verify.suite_* function is added in Tracer.install
_FUNCTIONS = [
    ("c2alg.pin_spin", "twisted_adjoint", "pin_spin.twisted_adjoint", None),
    ("c2alg.pin_spin", "spin_lift", "pin_spin.spin_lift", lambda R, *a, **k: len(R)),
    ("c2alg.pin_spin", "rho_residual", "pin_spin.rho_residual", None),  # keyed in install
    ("c2alg.pin_spin", "phi_lift", "pin_spin.phi_lift", lambda U, *a, **k: len(U)),
    ("c2alg.linalg", "fixed_point_retraction", "linalg.fixed_point_retraction", None),
    ("c2alg.linalg", "symmetric_unitary_sqrt", "linalg.symmetric_unitary_sqrt", None),
    ("c2alg.linalg", "realify", "linalg.realify", None),
    ("c2alg.genus", "genus_evaluate", "genus.genus_evaluate", None),
    ("c2alg.mackey", "fixed_point_obstruction", "mackey.fixed_point_obstruction", None),
    ("c2alg.funcalc", "alpha_conjugation_check", "funcalc.alpha_conjugation_check", None),
    ("c2alg.funcalc", "comultiplication", "funcalc.comultiplication", None),
]
# Spans whose top-level calls (no traced caller) are also kept one by one, by
# argument: the lifts by n, rho_residual by n of SO(n) or, on the Spin^c path
# (g in CCl(n,n)), under its own name by n of U(n).
_TOP_LEVEL = {"pin_spin.spin_lift", "pin_spin.rho_residual", "pin_spin.rho_residual_phi",
              "pin_spin.phi_lift", "linalg.fixed_point_retraction",
              "linalg.symmetric_unitary_sqrt", "linalg.realify"}


class Tracer:
    """Records spans of wrapped c2alg callables in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.arg = array("q")
        self.algebras: set = set()
        self._stack: list[int] = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _recorder(self, fn, classify):
        """Wrap fn; classify(*args) -> (name id, recorded argument)."""
        ids, starts, ends = self.name_id, self.start, self.end
        parents, args, stack = self.parent, self.arg, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            nid, value = classify(*a, **kw)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            args.append(value)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*a, **kw)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every traced callable in the loaded c2alg modules."""
        from c2alg import clifford, pin_spin, verify

        suites = [("c2alg.verify", attr, f"verify.{attr}", None)
                  for attr in vars(verify) if attr.startswith("suite_")]
        for module_name, attr, name, arg in suites + _FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            nid = self._id(name)
            classify = ((lambda *a, _n=nid, **k: (_n, 0)) if arg is None else
                        (lambda *a, _n=nid, _f=arg, **k: (_n, _f(*a, **k))))
            if name == "pin_spin.rho_residual":
                classify = self._classify_rho_residual(nid)
            self._rebind(original, self._recorder(original, classify))

        exact_id = self._id("clifford.mul_exact")
        numeric_id = self._id("clifford.mul_numeric")
        multivector = clifford.Multivector
        seen = self.algebras

        def classify_mul(a, b):
            seen.add(a.algebra)
            if isinstance(b, multivector):
                exact = a.exact and b.exact
                return (exact_id if exact else numeric_id), len(a.terms) * len(b.terms)
            return (exact_id if a.exact and not isinstance(b, (float, complex))
                    else numeric_id), 0

        init_id = self._id("pin_spin.pin_element_init")
        for cls, attr, classify in (
                (multivector, "__mul__", classify_mul),
                (pin_spin.PinElement, "__init__", lambda *a, **k: (init_id, 0))):
            original = cls.__dict__[attr]
            setattr(cls, attr, self._recorder(original, classify))
            self._undo.append((setattr, cls, attr, original))

    def _classify_rho_residual(self, so_id):
        phi_id = self._id("pin_spin.rho_residual_phi")

        def classify(g, R, *a, **k):
            if g.algebra.q:  # realify(U) against a Spin^c(n,n) element
                return phi_id, len(R) // 2
            return so_id, len(R)

        return classify

    def _rebind(self, original, wrapper):
        """Point every c2alg module global and module-level dict entry at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "c2alg" or mod_name.startswith("c2alg.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self):
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    def clear(self):
        for buf in (self.name_id, self.start, self.end, self.parent, self.arg):
            del buf[:]

    def cache_entries(self) -> int:
        """Blade-product cache entries of every algebra seen by a product.

        The cache is a private attribute of CliffordAlgebra; an algebra without
        one counts as zero entries.
        """
        return sum(len(getattr(alg, "_blade_cache", ())) for alg in self.algebras)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed argument;
        for the names in _TOP_LEVEL also each top-level call's inclusive
        seconds, by argument."""
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans: dict = {}
        curves: dict = {}
        for i in range(count):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            s = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "arg_sum": 0})
            s["calls"] += 1
            s["incl_s"] += duration
            s["self_s"] += duration - covered[i]
            s["arg_sum"] += self.arg[i]
            if name in _TOP_LEVEL and self.parent[i] < 0:
                curves.setdefault(name, {}).setdefault(str(self.arg[i]), []).append(duration)
        return {"spans": spans, "curves": curves}


def merge(aggregates) -> dict:
    """Sum span totals and concatenate per-call samples of several aggregates."""
    spans: dict = {}
    curves: dict = {}
    for agg in aggregates:
        for name, s in agg["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "arg_sum": 0})
            for key, value in s.items():
                acc[key] += value
        for name, by_arg in agg["curves"].items():
            for arg, samples in by_arg.items():
                curves.setdefault(name, {}).setdefault(arg, []).extend(samples)
    return {"spans": spans, "curves": curves}


def layer_metrics(agg: dict, passes: int) -> dict:
    """Per-layer metrics from spans of ``passes`` traced passes.

    Totals (calls, seconds, term pairs) and linalg seconds (top-level calls
    only) are per pass; curve values are the median inclusive seconds of one
    top-level call of size n. Only layers the workload reaches appear.
    """
    spans, curves = agg["spans"], agg["curves"]
    out = {}

    def totals(name, keys):
        if name in spans:
            for key in keys:
                out[f"{name}.{key}"] = spans[name][key] / passes

    for name, s in spans.items():
        if name.startswith("verify.suite_"):
            out[f"{name}_s"] = s["incl_s"] / passes
    for name in ("pin_spin.twisted_adjoint", "pin_spin.pin_element_init"):
        totals(name, ("calls", "self_s", "incl_s"))
    for name in ("pin_spin.spin_lift", "pin_spin.rho_residual",
                 "pin_spin.rho_residual_phi", "pin_spin.phi_lift"):
        for n, samples in curves.get(name, {}).items():
            out[f"{name}_s.n{n}"] = statistics.median(samples)
    for kind in ("exact", "numeric"):
        name = f"clifford.mul_{kind}"
        if name in spans:
            out[f"{name}.calls"] = spans[name]["calls"] / passes
            out[f"{name}.term_pairs"] = spans[name]["arg_sum"] / passes
            out[f"{name}.self_s"] = spans[name]["self_s"] / passes
    for name in ("fixed_point_retraction", "symmetric_unitary_sqrt", "realify"):
        samples = [t for by_n in curves.get(f"linalg.{name}", {}).values() for t in by_n]
        if samples:
            out[f"linalg.{name}_s"] = sum(samples) / passes
    for name in ("genus.genus_evaluate", "mackey.fixed_point_obstruction"):
        totals(name, ("calls", "self_s"))
    for name in ("funcalc.alpha_conjugation_check", "funcalc.comultiplication"):
        totals(name, ("self_s",))
    return out


def cache_metrics(entries: int, term_pairs: int) -> dict:
    """Blade-cache size after a cold pass, and the share of that pass's term
    pairs served from the cache (1 - entries / term pairs)."""
    return {
        "clifford.blade_cache_entries": entries,
        "clifford.blade_cache_hit_ratio": 1.0 - entries / term_pairs if term_pairs else 0.0,
    }


def term_pairs(agg: dict) -> int:
    spans = agg["spans"]
    return sum(spans.get(f"clifford.mul_{k}", {}).get("arg_sum", 0) for k in ("exact", "numeric"))


def _traced_cli(out_path: str, cli_args: list[str]) -> int:
    from c2alg import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        agg = tracer.aggregate()
        agg["cache_entries"] = tracer.cache_entries()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(agg, handle)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
