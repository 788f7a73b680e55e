"""Seeded property suites behind ``verify``; shared by the CLI and the tests.

Each suite draws its cases from a deterministic generator seeded by the pair
(seed, suite name), so identical invocations produce identical reports. Exact
suites assert equalities on the nose; spectral suites track max residuals
against the double-precision tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import funcalc, genus, mackey
from .clifford import Multivector, ccl, from_kasparov, graded_tensor_split, to_kasparov
from .linalg import default_tol, random_unitary, realify
from .pin_spin import (DensePin, PinElement, check_rho_real_equivariance,
                       iv_model_action, lift_residuals, phi_lift, spin_lift, twisted_adjoint)
from .scalars import GaussianRational, MultiPoly, RatFunc

SUITE_NAMES = ["clifford", "pin-spin", "genus", "mackey", "functional-calculus"]

MAX_REPORTED_FAILURES = 20

# Largest case count the CLI accepts. Time is linear in the count and memory
# flat: cold `verify --suite all` takes about 0.45 s at 100 cases, 2.1 s at
# 1000 and 5.6 s at 3000 (medians; peak RSS 40 MiB throughout) on a shared
# 2-vCPU Xeon VM with Python 3.11, so a run at the cap ends in under 30 s.
MAX_CASES = 10_000


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, condition: bool, label: str):
        self.checks += 1
        if not condition and len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(label)

    def record_residual(self, key: str, value: float):
        """Keep the largest value recorded under key; a NaN, once recorded, stays."""
        value = float(value)
        old = self.residuals.get(key, 0.0)
        self.residuals[key] = value if math.isnan(value) or value > old else old

    def to_json(self) -> dict:
        return {
            "checks": self.checks,
            "failures": list(self.failures),
            "residuals": dict(self.residuals),
            "passed": self.passed,
        }


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


def _np_rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0x7FFFFFFF, sum(map(ord, salt))])


# -- random exact data ----------------------------------------------------------------


def _ratio(rng, num=6, den=4) -> tuple[int, int]:
    """The draws of ``rand_fraction``: (numerator, denominator), not reduced."""
    return rng.randint(-num, num), rng.randint(1, den)


def rand_fraction(rng, num=6, den=4) -> Fraction:
    return Fraction(*_ratio(rng, num, den))


def _coeff_ratio(rng) -> tuple[int, int, int, int]:
    """The draws of ``rand_coeff``: (a, b, c, d) for a/b + (c/d) i."""
    roll = rng.random()
    if roll < 0.4:
        return (*_ratio(rng), 0, 1)
    if roll < 0.8:
        return (0, 1, *_ratio(rng))
    return (*_ratio(rng), *_ratio(rng))


def rand_coeff(rng) -> GaussianRational:
    a, b, c, d = _coeff_ratio(rng)
    return GaussianRational(Fraction(a, b), Fraction(c, d))


def _exact(alg, ratios: dict) -> Multivector:
    """Exact element with a/b + (c/d) i at each mask of {mask: (a, b, c, d)}.

    The numerators go over the lcm of the raw denominators; one gcd
    (``Multivector._reduced``) brings them to the canonical form.
    """
    den = math.lcm(*[x for _, b, _, d in ratios.values() for x in (b, d)])
    return Multivector._reduced(alg, {m: (a * (den // b), c * (den // d))
                                      for m, (a, b, c, d) in ratios.items() if a or c}, den)


def rand_algebra(rng, max_dim):
    """ccl(p, q) with 1 <= p + q <= max_dim: p is drawn first, then q; (0, 0) becomes (1, 0)."""
    p = rng.randint(0, max_dim)
    q = rng.randint(0, max_dim - p)
    return ccl(p if p + q else 1, q)


def rand_multivector(rng, alg, max_terms=4):
    ratios = {}
    for _ in range(rng.randint(1, max_terms)):
        c = _coeff_ratio(rng)
        if c[0] or c[2]:
            ratios[rng.randrange(1 << alg.dim)] = c
    return _exact(alg, ratios)


def rand_real_vector(rng, alg):
    return _exact(alg, {1 << i: (*_ratio(rng), 0, 1) for i in range(alg.dim)})


def rational_unit_vector(rng, alg):
    """Unit grade-1 vector with rational coordinates (stereographic sampling).

    With t_i = A_i / L over the lcm L of the drawn denominators, the point is
    (L^2 - sum A^2, 2 A_i L) / (L^2 + sum A^2), before a shuffle and signs.
    """
    if not alg.dim:
        raise ValueError(f"{alg.label} has no unit vector")
    t = [_ratio(rng, 3, 3) for _ in range(alg.dim - 1)]
    lcm = math.lcm(*[d for _, d in t])
    nums = [n * (lcm // d) for n, d in t]
    s = sum(a * a for a in nums)
    coords = [lcm * lcm - s] + [2 * a * lcm for a in nums]
    rng.shuffle(coords)
    coords = [c if rng.random() < 0.5 else -c for c in coords]
    return _exact(alg, {1 << k: (c, lcm * lcm + s, 0, 1) for k, c in enumerate(coords)})


def rational_phase(rng) -> GaussianRational:
    """(1 - t^2 + 2t i) / (1 + t^2) for a drawn t = a/b, on integers."""
    a, b = _ratio(rng, 3, 3)
    den = a * a + b * b
    return GaussianRational(Fraction(b * b - a * a, den), Fraction(2 * a * b, den))


def rand_pin(rng, alg, max_factors=4, force_even=None, with_phase=True) -> PinElement:
    k = rng.randint(0, max_factors)
    if force_even is not None and k % 2 != force_even:
        k = k + 1 if k + 1 <= max_factors else k - 1
    vectors = [rational_unit_vector(rng, alg) for _ in range(max(k, 0))]
    phase = rational_phase(rng) if with_phase else 1
    return PinElement.from_factors(alg, vectors, phase)


def rand_polynomial(rng, nvars, max_terms=3, max_degree=2) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(nvars)] += 1
        c = rand_fraction(rng)
        if c:
            terms[tuple(exp)] = c
    return MultiPoly(nvars, terms)


# -- suites ---------------------------------------------------------------------------


def suite_clifford(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("clifford")
    rng = _rng(seed, "clifford")
    for i in range(cases):
        alg = rand_algebra(rng, 6)
        x = rand_multivector(rng, alg)
        y = rand_multivector(rng, alg)
        z = rand_multivector(rng, alg)
        xy, x_bar, x_star = x * y, x.bar(), x.star()
        result.check(xy * z == x * (y * z), f"associativity case {i} in {alg.label}")

        v = rand_real_vector(rng, alg)
        w = rand_real_vector(rng, alg)
        dot = sum(a * b for a, b in zip(_numerators(v), _numerators(w)))
        twice_dot = Multivector._reduced(alg, {0: (2 * dot, 0)} if dot else {}, v.den * w.den)
        result.check(v * w + w * v == twice_dot, f"polarization case {i}")

        result.check(x_bar.bar() == x, f"bar involution case {i}")
        result.check(xy.bar() == x_bar * y.bar(), f"bar multiplicative case {i}")
        result.check(x_bar.grades() == x.grades(), f"bar even case {i}")
        result.check(x_star.star() == x, f"star involution case {i}")
        result.check(xy.star() == y.star() * x_star, f"star anti-multiplicative case {i}")

        kx, ky = to_kasparov(x), to_kasparov(y)
        result.check(to_kasparov(xy) == kx * ky, f"kasparov multiplicative case {i}")
        result.check(to_kasparov(x_bar) == kx.bar(), f"kasparov bar case {i}")
        result.check(to_kasparov(x_star) == kx.star(), f"kasparov star case {i}")
        result.check(from_kasparov(kx) == x, f"kasparov bijective case {i}")

    for i in range(max(1, cases // 10)):
        p = rng.randint(1, 3)
        q = rng.randint(0, 2)
        alg = ccl(p, q)
        first = [k for k in range(1, alg.dim + 1) if rng.random() < 0.5]
        x = rand_multivector(rng, alg, 3)
        y = rand_multivector(rng, alg, 3)
        spec, tx = graded_tensor_split(x, first)
        ty = spec.split(y)
        result.check(spec.merge(tx) == x, f"split round trip case {i}")
        result.check(spec.merge(tx * ty) == x * y, f"split product case {i}")
        result.check(spec.merge(tx.bar()) == x.bar(), f"split bar case {i}")
        result.check(spec.merge(tx.star()) == x.star(), f"split star case {i}")
    return result


def _maps_to(action, vec, sign) -> bool:
    """Does the exact action send the integer column vec to sign * vec?"""
    return all(sum(a * b for a, b in zip(row, vec)) == sign * action.den * x
               for row, x in zip(action.numerators, vec))


def _numerators(v) -> list:
    """Real numerators of a grade-1 exact element, one per generator, over v.den."""
    return [v.terms.get(1 << k, (0, 0))[0] for k in range(v.algebra.dim)]


def suite_rho(seed: int, cases: int) -> SuiteResult:
    """Exact twisted-adjoint properties on rational unit-vector products."""
    result = SuiteResult("rho")
    rng = _rng(seed, "rho")
    for i in range(cases):
        alg = rand_algebra(rng, 4)
        g = rand_pin(rng, alg, 4)
        h = rand_pin(rng, alg, 4)
        rho_g = twisted_adjoint(g)
        rho_h = twisted_adjoint(h)
        result.check(twisted_adjoint(g * h) == rho_g @ rho_h,
                     f"rho homomorphism case {i}")
        result.check(rho_g.is_orthogonal(), f"rho orthogonal case {i}")
        result.check(check_rho_real_equivariance(g, rho_g),
                     f"rho Real equivariance case {i}")

        u = rational_unit_vector(rng, alg)
        rho_u = twisted_adjoint(PinElement.from_factors(alg, [u]))
        # over u.den and w.den: u -> -u, and w - (u.w) u (u is unit) is fixed
        unum = _numerators(u)
        result.check(_maps_to(rho_u, unum, -1), f"reflection negates axis case {i}")
        w = rand_real_vector(rng, alg)
        wnum = _numerators(w)
        proj = sum(a * b for a, b in zip(unum, wnum))
        perp = [b * u.den * u.den - proj * a for a, b in zip(unum, wnum)]
        result.check(_maps_to(rho_u, perp, 1),
                     f"reflection fixes complement case {i}")
    return result


def suite_pin_kernel(seed: int, cases: int) -> SuiteResult:
    """Conjugation-kernel identities and the polynomial action composition law."""
    result = SuiteResult("pin-kernel")
    rng = _rng(seed, "pin-kernel")
    for i in range(cases):
        alg = rand_algebra(rng, 4)
        ge = rand_pin(rng, alg, 4, force_even=0)
        v = rand_real_vector(rng, alg)
        w = rand_multivector(rng, alg, 3)
        result.check(funcalc.alpha_conjugation_check(ge, v, w),
                     f"alpha kernel identity case {i}")

        g = rand_pin(rng, alg, 3)
        h = rand_pin(rng, alg, 3)
        f = rand_polynomial(rng, alg.dim)
        x = rand_multivector(rng, alg, 2)
        x1, f1 = iv_model_action(h, x, f)
        x2, f2 = iv_model_action(g, x1, f1)
        x3, f3 = iv_model_action(g * h, x, f)
        result.check(x2 == x3 and f2 == f3, f"iv action composition case {i}")
    return result


def random_special_orthogonal(nrng, n: int) -> np.ndarray:
    Z = nrng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * np.where(np.diag(R) < 0, -1.0, 1.0)
    if np.linalg.det(Q) < 0:
        if n == 1:
            Q = -Q
        else:
            Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


def suite_spin_lift(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("spin-lift")
    nrng = _np_rng(seed, "spin-lift")
    rng = _rng(seed, "spin-lift")
    tol = default_tol()
    for i in range(cases):
        n = 2 + (i % 7)
        R = random_special_orthogonal(nrng, n)
        try:
            g = spin_lift(R)
            res = lift_residuals(g, R)
        except ValueError as exc:  # a C2ALG_TOL below rounding error refuses the input
            result.check(False, f"spin lift case {i} (n={n}): {exc}")
            continue
        for key, value in res.items():
            result.record_residual(key, value)
        result.check(all(v <= tol for v in res.values()), f"spin lift residual case {i} (n={n})")
        result.check(g.parity == 0, f"spin lift parity case {i}")

    for i in range(max(1, cases // 4)):
        # round trip through an exact Spin element: lift(rho(g)) = +-g
        p = rng.randint(2, 4)
        alg = ccl(p, 0)
        g = rand_pin(rng, alg, 4, force_even=0, with_phase=False)
        R = twisted_adjoint(g).as_numpy()
        try:
            lifted = spin_lift(R).values
        except ValueError as exc:
            result.check(False, f"spin lift round trip case {i}: {exc}")
            continue
        gn = g.value.to_dense()
        diff = float(min(np.max(np.abs(lifted - gn)), np.max(np.abs(lifted + gn))))
        result.record_residual("round_trip", diff)
        result.check(diff <= tol, f"spin lift round trip case {i}")
    return result


def suite_phi(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("phi")
    nrng = _np_rng(seed, "phi")
    tol = default_tol()
    for i in range(cases):
        n = 1 + (i % 4)
        U = random_unitary(nrng, n)
        V = random_unitary(nrng, n)
        try:
            phi_u = phi_lift(U)
            phi_v = phi_lift(V)
            phi_uv = phi_lift(U @ V)
            res = lift_residuals(phi_u, realify(U), phi_lift(np.conj(U)))
            # phi(U) phi(V) from the factors of both lifts: it shares no eigenbasis with phi(UV)
            product = DensePin(phi_u.algebra, [*phi_u.vectors, *phi_v.vectors],
                               phi_u.phase * phi_v.phase)
            redo = phi_lift(U, rng=nrng)
        except ValueError as exc:  # a C2ALG_TOL below rounding error refuses the input
            result.check(False, f"phi case {i} (n={n}): {exc}")
            continue

        for key, value in res.items():
            result.record_residual(key, value)
        result.check(res["rho"] <= tol, f"rho(phi(U)) = realify(U) case {i} (n={n})")

        res_hom = np.max(np.abs(phi_uv.values - product.values))
        result.record_residual("homomorphism", res_hom)
        result.check(res_hom <= tol, f"phi homomorphism case {i}")
        result.check(res["real_equivariance"] <= tol, f"phi Real equivariance case {i}")

        phase = phi_u.phase
        res_det = abs(phase * phase - np.linalg.det(U))
        result.record_residual("phase_sq_det", res_det)
        result.check(res_det <= tol, f"phase squares to det case {i}")

        res_canon = np.max(np.abs(phi_u.values - redo.values))
        result.record_residual("canonicity", res_canon)
        result.check(res_canon <= tol, f"phi canonicity case {i}")
        result.check(res["unit"] <= tol, f"phi unit case {i}")
        result.check(phi_u.parity == 0, f"phi parity case {i}")
    return result


def suite_pin_spin(seed: int, cases: int) -> SuiteResult:
    """Exact rho cases at the requested volume plus capped spectral sub-suites."""
    result = SuiteResult("pin-spin")
    for sub in (
        suite_rho(seed, cases),
        suite_pin_kernel(seed, max(1, cases // 5)),
        suite_spin_lift(seed, min(cases, 20)),
        suite_phi(seed, min(cases, 6)),
    ):
        result.checks += sub.checks
        result.failures.extend(f"{sub.name}: {msg}" for msg in sub.failures)
        for key, value in sub.residuals.items():
            result.record_residual(f"{sub.name}.{key}", value)
    del result.failures[MAX_REPORTED_FAILURES:]
    return result


AHAT_1_FIXTURE = MultiPoly(1, {(1,): Fraction(-1, 24)})
AHAT_2_FIXTURE = MultiPoly(2, {(2, 0): Fraction(7, 5760), (0, 1): Fraction(-4, 5760)})


def suite_genus(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("genus")
    rng = _rng(seed, "genus")
    seq = genus.ahat_sequence()

    result.check(genus.ahat_polynomial(1) == AHAT_1_FIXTURE, "A-hat degree 1 fixture")
    result.check(genus.ahat_polynomial(2) == AHAT_2_FIXTURE, "A-hat degree 2 fixture")

    cp2 = genus.cp_projective_data(2)
    result.check(cp2.number((1,)) == 3, "p1 of the projective plane")
    result.check(genus.genus_evaluate(seq, cp2) == Fraction(-1, 8),
                 "A-hat of the degree-4 generator")
    cp4 = genus.cp_projective_data(4)
    result.check(cp4.number((1, 1)) == 25 and cp4.number((2,)) == 10,
                 "Pontryagin numbers of the degree-8 projective space")
    square = genus.product_data(cp2, cp2)
    result.check(square.number((1, 1)) == 18 and square.number((2,)) == 9,
                 "Pontryagin numbers of the squared generator")
    direct = genus.genus_evaluate(seq, square)
    result.check(direct == Fraction(1, 64), "A-hat of the square, direct route")
    result.check(direct == genus.genus_evaluate(seq, cp2) ** 2,
                 "A-hat of the square, multiplicative route")
    result.check(genus.genus_evaluate(seq, genus.cp_projective_data(1)) == 0,
                 "dimension 2 evaluates to zero")
    result.check(genus.genus_evaluate(seq, genus.cp_projective_data(3)) == 0,
                 "dimension 6 evaluates to zero")

    generators = [genus.cp_projective_data(2), genus.cp_projective_data(4)]
    for i in range(cases):
        def build(limit):
            data = genus.point_data()
            while data.dim < limit and rng.random() < 0.7:
                pick = generators[rng.randrange(len(generators))]
                if data.dim + pick.dim > limit:
                    break
                data = genus.product_data(data, pick)
            return data

        a = build(8)
        b = build(8)
        ab = genus.product_data(a, b)
        result.check(ab == genus.product_data(b, a), f"product commutativity case {i}")
        result.check(
            genus.genus_evaluate(seq, ab)
            == genus.genus_evaluate(seq, a) * genus.genus_evaluate(seq, b),
            f"genus multiplicative case {i}")
        round_trip = genus.CharClassData.from_json(a.to_json())
        result.check(round_trip == a, f"char data json round trip case {i}")

    for text in ("CP2", "CP4", "CP2 x CP2", "CP2^2 x CP4", "cp2 X cp2"):
        spec = genus.ManifoldSpec.parse(text)
        result.check(genus.ManifoldSpec.parse(str(spec)) == spec,
                     f"manifold grammar round trip {text!r}")
    return result


def suite_mackey(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("mackey")
    rng = _rng(seed, "mackey")

    fixtures = mackey.fixture_presentations()
    for name, presentation in fixtures.items():
        report = mackey.check_mackey_axioms(presentation)
        result.check(report.all_passed == mackey.FIXTURE_EXPECTED[name],
                     f"fixture {name} expected "
                     f"{'pass' if mackey.FIXTURE_EXPECTED[name] else 'fail'}")
    broken = mackey.check_mackey_axioms(fixtures["broken_transfer"])
    result.check([a.passed for a in broken.axioms] == [True, True, True, False],
                 "broken fixture fails exactly the double-coset axiom")

    cert = mackey.fixed_point_obstruction(Fraction(-1, 8))
    result.check(cert.period == 4 and cert.obstructed, "reference certificate shape")
    result.check(cert.residues == [Fraction(1, 32), Fraction(9, 32),
                                   Fraction(17, 32), Fraction(25, 32)],
                 "reference residue table")
    result.check(mackey.fixed_point_obstruction(0).witness == 0,
                 "integral genus yields a witness")

    for i in range(cases):
        q = rand_fraction(rng, 9, 12)
        k = rng.randint(-3, 3)
        c1 = mackey.fixed_point_obstruction(q)
        c2 = mackey.fixed_point_obstruction(q + k)
        result.check(c1.obstructed == c2.obstructed,
                     f"verdict stability under integer shift case {i}")
        result.check(sorted(c1.residues) == sorted(c2.residues),
                     f"residue multiset stability case {i}")
        result.check(mackey.fixed_point_obstruction(rng.randint(-5, 5)).witness is not None,
                     f"integer genus witness case {i}")
        m = rng.randint(-8, 8)
        delta = (mackey.obstruction_value(q, m + c1.period)
                 - mackey.obstruction_value(q, m))
        result.check(delta.denominator == 1, f"periodicity case {i}")

    report = mackey.obstruction_chain_report()
    result.check(report["obstructed"] and report["certificate"]["period"] == 4,
                 "default obstruction chain")
    result.check(not mackey.obstruction_chain_report(genus_override=0)["obstructed"],
                 "override 0 finds a witness")
    return result


def suite_functional_calculus(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("functional-calculus")
    rng = _rng(seed, "functional-calculus")

    a, b = funcalc.s_generators()
    result.check(b * b == a - a * a, "b^2 = a - a^2")
    result.check(a * b == b * a, "a central")
    result.check(a.is_self_adjoint() and b.is_self_adjoint(), "generators self-adjoint")
    result.check(a.parity() == 0 and b.parity() == 1, "generator parity")

    da = funcalc.comultiplication("a")
    db = funcalc.comultiplication("b")
    result.check(db * db == da - da * da, "Delta(b)^2 = Delta(a) - Delta(a)^2")
    result.check((db * db).coeff(0b11).is_zero(), "cross term vanishes exactly")
    result.check(da.swap_slots(0, 1) == da and db.swap_slots(0, 1) == db,
                 "cocommutativity")
    left = funcalc.expand_slot(db, 0)
    right = funcalc.expand_slot(db, 1)
    oracle = funcalc.delta_b_triple()
    result.check(left == oracle and right == oracle, "coassociativity on b")
    result.check(funcalc.expand_slot(da, 0) == funcalc.delta_a_triple()
                 and funcalc.expand_slot(da, 1) == funcalc.delta_a_triple(),
                 "coassociativity on a")
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    den = funcalc._one_plus_sum_of_squares(2)
    result.check(db.odd_readoff() == RatFunc(x + y, den),
                 "odd coefficient read-off")

    for i in range(cases):
        alg = rand_algebra(rng, 4)
        v = rand_real_vector(rng, alg)
        image = funcalc.fc_eval(v)
        result.check(image.check_relations(), f"fc graded-* relations case {i}")
        result.check(funcalc.fc_equivariance(v, image), f"fc equivariance case {i}")

        g = rand_pin(rng, alg, 4, force_even=0)
        w = rand_multivector(rng, alg, 3)
        result.check(funcalc.alpha_conjugation_check(g, v, w),
                     f"alpha conjugation case {i}")
    return result


SUITES = {
    "clifford": suite_clifford,
    "pin-spin": suite_pin_spin,
    "genus": suite_genus,
    "mackey": suite_mackey,
    "functional-calculus": suite_functional_calculus,
}


def run_verify(suite: str, seed: int, cases: int) -> dict:
    """Run one suite (or "all") and assemble the machine-readable report."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    outputs = {}
    residuals = {}
    for name in names:
        result = SUITES[name](seed, cases)
        outputs[name] = result.to_json()
        for key, value in result.residuals.items():
            residuals[f"{name}.{key}"] = value
    verdict = "pass" if all(o["passed"] for o in outputs.values()) else "fail"
    return {
        "command": "verify",
        "inputs": {"suite": suite, "seed": seed, "cases": cases},
        "outputs": outputs,
        "residuals": residuals,
        "verdict": verdict,
    }
