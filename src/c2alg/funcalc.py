"""Generators of the graded function algebra, comultiplication, functional calculus.

The graded model realizes tensor powers of the algebra generated by
a(t) = 1/(1+t^2) and b(t) = t/(1+t^2) with one commuting function variable and
one anticommuting odd generator per tensor slot. The odd generators square to
+1, which makes the comultiplication a genuine homomorphism: the cross terms
of Delta(b)^2 cancel exactly, and the scalar formulas are recovered by
coefficient read-off. A naive commutative model falsifies
Delta(b)^2 = Delta(a) - Delta(a)^2 and is deliberately not provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import MAX_GENERATORS, Multivector, _norm_sq_numerator, ccl, relabel
from .pin_spin import PinElement, _require_pin
from .scalars import MultiPoly, RatFunc, format_sum


class GradedRatFunc:
    """Sum of rational functions times odd-generator blades, over one denominator.

    Stored as ``Multivector`` is: ``numerators`` maps bitmasks over the odd
    generators (one per tensor slot) to nonzero MultiPolys in ``nvars``
    commuting variables over one MultiPoly ``den``. The constructor takes
    ``{mask: RatFunc}`` and puts different denominators over their product;
    as in ``RatFunc`` no gcd is taken, so ``==`` cross-multiplies per blade.
    ``terms`` and ``coeff`` build ``RatFunc``s only when asked.
    """

    __slots__ = ("nvars", "nslots", "numerators", "den")

    def __init__(self, nvars: int, nslots: int, terms: dict | None = None):
        if not 0 <= nslots <= MAX_GENERATORS:
            raise ValueError(f"the number of odd generators must lie in 0..{MAX_GENERATORS}")
        numerators, den = {}, MultiPoly.one(nvars)
        for mask, f in (terms or {}).items():
            if mask >> nslots:
                raise ValueError("blade uses more odd generators than available")
            if f.nvars != nvars:
                raise ValueError("variable-count mismatch")
            if f.is_zero():
                continue
            num = f.num
            if f.den != den:
                numerators = {m: n * f.den for m, n in numerators.items()}
                num, den = num * den, den * f.den
            numerators[mask] = num
        self.nvars, self.nslots, self.numerators, self.den = nvars, nslots, numerators, den

    def _like(self, numerators: dict, den: MultiPoly) -> "GradedRatFunc":
        """Element of this shape with the given numerators over den, zeros dropped."""
        out = object.__new__(GradedRatFunc)
        out.nvars, out.nslots, out.den = self.nvars, self.nslots, den
        out.numerators = {m: n for m, n in numerators.items() if not n.is_zero()}
        return out

    @staticmethod
    def scalar(nvars: int, nslots: int, f: RatFunc) -> "GradedRatFunc":
        return GradedRatFunc(nvars, nslots, {0: f})

    @property
    def terms(self) -> dict:
        """{mask: RatFunc} of the nonzero blades."""
        return {m: RatFunc(n, self.den) for m, n in self.numerators.items()}

    def coeff(self, mask: int) -> RatFunc:
        return RatFunc(self.numerators.get(mask, MultiPoly.zero(self.nvars)), self.den)

    def _coerce(self, other) -> "GradedRatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc.from_const(self.nvars, other)
        if isinstance(other, MultiPoly):
            other = RatFunc(other)
        if isinstance(other, RatFunc):
            other = GradedRatFunc.scalar(other.nvars, self.nslots, other)
        if not isinstance(other, GradedRatFunc):
            raise TypeError(f"cannot combine GradedRatFunc with {type(other).__name__}")
        if self.nvars != other.nvars or self.nslots != other.nslots:
            raise ValueError("model shape mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            den, left, right = self.den, self.numerators, other.numerators
        else:
            den = self.den * other.den
            left = {m: n * other.den for m, n in self.numerators.items()}
            right = {m: n * self.den for m, n in other.numerators.items()}
        out = dict(left)
        for m, n in right.items():
            out[m] = out[m] + n if m in out else n
        return self._like(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({m: -n for m, n in self.numerators.items()}, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        flips = ccl(self.nslots, 0).flips
        right = [(m2, flips[m2], (n2, -n2)) for m2, n2 in other.numerators.items()]
        out: dict = {}
        for m1, n1 in self.numerators.items():
            for m2, f2, signed in right:
                n = n1 * signed[(m1 & f2).bit_count() & 1]
                mask = m1 ^ m2
                out[mask] = out[mask] + n if mask in out else n
        return self._like(out, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedRatFunc):
            return NotImplemented
        return ((self.nvars, self.nslots) == (other.nvars, other.nslots)
                and self.numerators.keys() == other.numerators.keys()
                and all(n * other.den == other.numerators[m] * self.den
                        for m, n in self.numerators.items()))

    def parity(self):
        grades = {m.bit_count() & 1 for m in self.numerators}
        if len(grades) == 1:
            return grades.pop()
        return None

    def star(self) -> "GradedRatFunc":
        """Blade reversal; coefficients are real rational functions.

        Reversing k generators takes k(k-1)/2 swaps, an odd number when k % 4 is 2 or 3."""
        return self._like({m: -n if m.bit_count() & 2 else n
                           for m, n in self.numerators.items()}, self.den)

    def is_self_adjoint(self) -> bool:
        return self == self.star()

    def odd_readoff(self) -> RatFunc:
        """Sum of the single-generator coefficients (the scalar form of the coproduct)."""
        odd = [n for m, n in self.numerators.items() if m.bit_count() == 1]
        return RatFunc(sum(odd, MultiPoly.zero(self.nvars)), self.den)

    def swap_slots(self, i: int, j: int) -> "GradedRatFunc":
        """Exchange tensor slots i and j (variables and odd generators together)."""
        if not (0 <= i < self.nslots and 0 <= j < self.nslots):
            raise ValueError("slot out of range")
        if i == j:
            return self
        perm = list(range(self.nvars))
        if i < self.nvars and j < self.nvars:
            perm[i], perm[j] = perm[j], perm[i]
        positions = list(range(self.nslots))
        positions[i], positions[j] = j, i
        out: dict = {}
        for mask, n in self.numerators.items():
            sign, mask = relabel(mask, positions)
            out[mask] = n.permute_vars(perm) * sign
        return self._like(out, self.den.permute_vars(perm))

    def __repr__(self):
        return format_sum((m, "".join(f"eps{i + 1}" for i in range(m.bit_length()) if m >> i & 1),
                           f"({f})") for m, f in self.terms.items())


# -- generators and comultiplication ---------------------------------------------------


def _one_plus_sum_of_squares(nvars: int) -> MultiPoly:
    poly = MultiPoly.one(nvars)
    for i in range(nvars):
        poly = poly + MultiPoly.variable(nvars, i) * MultiPoly.variable(nvars, i)
    return poly


def s_generators() -> tuple[GradedRatFunc, GradedRatFunc]:
    """The even generator a = 1/(1+t^2) and odd generator b = t/(1+t^2)."""
    den = _one_plus_sum_of_squares(1)
    t = MultiPoly.variable(1, 0)
    a = GradedRatFunc(1, 1, {0: RatFunc(MultiPoly.one(1), den)})
    b = GradedRatFunc(1, 1, {1: RatFunc(t, den)})
    return a, b


def comultiplication(tag: str) -> GradedRatFunc:
    """Coproduct of a generator in the two-slot graded model.

    Delta(a) = 1/(1+x^2+y^2) and Delta(b) = (x eps1 + y eps2)/(1+x^2+y^2);
    reading off the odd coefficients of Delta(b) gives (x+y)/(1+x^2+y^2).
    """
    den = _one_plus_sum_of_squares(2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    if tag == "a":
        return GradedRatFunc(2, 2, {0: RatFunc(MultiPoly.one(2), den)})
    if tag == "b":
        return GradedRatFunc(2, 2, {1: RatFunc(x, den), 2: RatFunc(y, den)})
    raise ValueError("generator tag must be 'a' or 'b'")


def _halve_exponent(poly: MultiPoly, var: int) -> MultiPoly:
    if not poly.is_even_in(var):
        raise ValueError("coefficient or denominator is not even in the slot variable")
    return poly.map_exponents(lambda e: e[:var] + (e[var] // 2,) + e[var + 1:])


def expand_slot(element: GradedRatFunc, slot: int) -> GradedRatFunc:
    """Apply the coproduct to one tensor slot.

    Uses the substitution form of the coproduct: even dependence on the slot
    variable is rewritten through x^2 -> u^2 + v^2, and a linear odd factor
    x*eps becomes u*eps_u + v*eps_v. Elements of the generator algebra always
    have this shape. The one ``den`` is promoted once, after multiplying
    through by x if it is odd in x. Distinct blades land on distinct blades,
    so each image is written directly over the promoted ``den``.
    """
    if not 0 <= slot < element.nslots:
        raise ValueError("slot out of range")
    nv = element.nvars
    if slot >= nv:
        raise ValueError("slot has no function variable")
    u = MultiPoly.variable(nv + 1, slot)
    v = MultiPoly.variable(nv + 1, slot + 1)
    reps = [MultiPoly.variable(nv + 1, t + (t > slot)) for t in range(nv)]
    reps[slot] = u * u + v * v

    def promote(poly: MultiPoly) -> MultiPoly:
        return _halve_exponent(poly, slot).substitute(reps)

    numerators, den = element.numerators, element.den
    if not den.is_even_in(slot):
        # multiply through by the slot variable; a den of mixed parity stays uneven
        var = MultiPoly.variable(nv, slot)
        numerators = {m: n * var for m, n in numerators.items()}
        den = den * var
    bit = 1 << slot
    out: dict = {}
    for mask, num in numerators.items():
        base = (mask & (bit - 1)) | (mask >> slot + 1 << slot + 2)  # generators above slot move up
        if mask & bit:
            if not num.is_odd_in(slot):
                raise ValueError("odd-slot coefficient must be odd in the slot variable")
            core = promote(num.shift_out_var(slot))
            out[base | bit] = core * u
            out[base | bit << 1] = core * v
        else:
            out[base] = promote(num)
    return GradedRatFunc(nv + 1, element.nslots + 1)._like(out, promote(den))


def delta_b_triple() -> GradedRatFunc:
    """Closed form of the iterated coproduct of b in three slots (the oracle)."""
    den = _one_plus_sum_of_squares(3)
    terms = {1 << i: RatFunc(MultiPoly.variable(3, i), den) for i in range(3)}
    return GradedRatFunc(3, 3, terms)


def delta_a_triple() -> GradedRatFunc:
    den = _one_plus_sum_of_squares(3)
    return GradedRatFunc(3, 3, {0: RatFunc(MultiPoly.one(3), den)})


# -- functional calculus ----------------------------------------------------------------


@dataclass
class FcImage:
    """Images of the generators under functional calculus at a vector v."""

    a_img: Multivector
    b_img: Multivector

    def check_relations(self) -> bool:
        """b^2 = a - a^2, centrality of a, self-adjointness, parity, all exactly."""
        a, b = self.a_img, self.b_img
        if b.terms and b.grades() != {1}:
            return False
        if a.terms and a.grades() != {0}:
            return False
        return (b * b == a - a * a
                and a * b == b * a
                and a.star() == a
                and b.star() == b)


def fc_eval(v: Multivector) -> FcImage:
    """fc(v): a -> 1/(1+|v|^2), b -> v/(1+|v|^2).

    Requires a grade-1 (or zero) element with real rational coefficients and
    no weight on a generator that squares to -1 (see ``vector_norm_sq``).
    On integer numerators: v = x/D, N = sum x_i^2, a -> D^2/(D^2+N), b -> xD/(D^2+N).
    """
    if v.terms and v.grades() != {1}:
        raise ValueError("non-vector input")
    d = v.den
    den = d * d + _norm_sq_numerator(v)
    return FcImage(
        Multivector._reduced(v.algebra, {0: (d * d, 0)}, den),
        Multivector._reduced(v.algebra, {m: (x * d, 0) for m, (x, _) in v.terms.items()}, den))


def fc_equivariance(v: Multivector, image: FcImage | None = None) -> bool:
    """fc(conj v) agrees with the componentwise conjugate of fc(v).

    Pass a precomputed ``image = fc_eval(v)`` to reuse it.
    """
    if image is None:
        image = fc_eval(v)
    conj_image = fc_eval(v.bar())
    return (conj_image.a_img == image.a_img.bar()
            and conj_image.b_img == image.b_img.bar())


def _l2_norm_sq(x: Multivector) -> Fraction:
    return Fraction(sum(a * a + b * b for a, b in x.terms.values()), x.den * x.den)


def alpha_conjugation_check(g: PinElement, v: Multivector, w: Multivector) -> bool:
    """Clifford-level identities behind well-definedness of the orientation map.

    For even unit g: g^{-1} ((g v g^{-1}) (g w)) = v w, and conjugation by g
    keeps a real grade-1 v on grade 1 with the same l2 norm sum |c_m|^2 (for
    unit g, x -> g x g* is an l2 isometry in every algebra here, ``kasparov``
    included). Both are exact.
    """
    if not _require_pin(g).is_even:
        raise ValueError("conjugating element must be even")
    ginv = g.inverse_value()
    gv = g.value * v * ginv
    lhs = ginv * (gv * (g.value * w))
    if lhs != v * w:
        return False
    if v.terms and v.grades() == {1} and v.is_real():
        if gv.grades() != {1}:
            return False
        if _l2_norm_sq(gv) != _l2_norm_sq(v):
            return False
    return True
