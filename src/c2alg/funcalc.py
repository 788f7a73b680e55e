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

from .clifford import MAX_GENERATORS, Multivector, _below_parity, _norm_sq_numerator, relabel
from .pin_spin import PinElement, _require_pin
from .scalars import MultiPoly, RatFunc


class GradedRatFunc:
    """Sum of rational functions times odd-generator blades.

    ``terms`` maps bitmasks over the odd generators (one per tensor slot) to
    RatFunc coefficients in ``nvars`` commuting variables.
    """

    __slots__ = ("nvars", "nslots", "terms")

    def __init__(self, nvars: int, nslots: int, terms: dict | None = None):
        if nslots > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} odd generators supported")
        self.nvars = nvars
        self.nslots = nslots
        clean = {}
        if terms:
            for mask, f in terms.items():
                if mask >> nslots:
                    raise ValueError("blade uses more odd generators than available")
                if f.nvars != nvars:
                    raise ValueError("variable-count mismatch")
                if not f.is_zero():
                    clean[mask] = f
        self.terms = clean

    @staticmethod
    def scalar(nvars: int, nslots: int, f: RatFunc) -> "GradedRatFunc":
        return GradedRatFunc(nvars, nslots, {0: f})

    def coeff(self, mask: int) -> RatFunc:
        return self.terms.get(mask, RatFunc.zero(self.nvars))

    def _check(self, other: "GradedRatFunc"):
        if self.nvars != other.nvars or self.nslots != other.nslots:
            raise ValueError("model shape mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = GradedRatFunc.scalar(self.nvars, self.nslots, self._as_rf(other))
        self._check(other)
        out = dict(self.terms)
        for m, f in other.terms.items():
            g = out.get(m)
            s = f if g is None else g + f
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return GradedRatFunc(self.nvars, self.nslots, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = GradedRatFunc.scalar(self.nvars, self.nslots, self._as_rf(other))
        return self + (-other)

    def __neg__(self):
        return GradedRatFunc(self.nvars, self.nslots, {m: -f for m, f in self.terms.items()})

    def _as_rf(self, value) -> RatFunc:
        if isinstance(value, RatFunc):
            return value
        return RatFunc.from_const(self.nvars, value)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            c = self._as_rf(other)
            return GradedRatFunc(self.nvars, self.nslots,
                                 {m: f * c for m, f in self.terms.items()})
        self._check(other)
        # every odd generator squares to +1: only the reordering swaps give a sign
        right = [(m2, _below_parity(m2), f2) for m2, f2 in other.terms.items()]
        out: dict = {}
        for m1, f1 in self.terms.items():
            for m2, flip, f2 in right:
                f = f1 * f2
                if (m1 & flip).bit_count() & 1:
                    f = -f
                mask = m1 ^ m2
                g = out.get(mask)
                s = f if g is None else g + f
                out[mask] = s
        return GradedRatFunc(self.nvars, self.nslots,
                             {m: f for m, f in out.items() if not f.is_zero()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedRatFunc):
            return NotImplemented
        return (self.nvars, self.nslots, self.terms) == (other.nvars, other.nslots, other.terms)

    def parity(self):
        grades = {m.bit_count() & 1 for m in self.terms}
        if len(grades) == 1:
            return grades.pop()
        return None

    def star(self) -> "GradedRatFunc":
        """Blade reversal; coefficients are real rational functions."""
        out = {}
        for m, f in self.terms.items():
            k = m.bit_count()
            out[m] = -f if (k * (k - 1) // 2) & 1 else f
        return GradedRatFunc(self.nvars, self.nslots, out)

    def is_self_adjoint(self) -> bool:
        return self == self.star()

    def odd_readoff(self) -> RatFunc:
        """Sum of the single-generator coefficients (the scalar form of the coproduct)."""
        total = RatFunc.zero(self.nvars)
        for i in range(self.nslots):
            total = total + self.coeff(1 << i)
        return total

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
        for mask, f in self.terms.items():
            sign, mask = relabel(mask, positions)
            g = f.permute_vars(perm)
            out[mask] = -g if sign < 0 else g
        return GradedRatFunc(self.nvars, self.nslots, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            blade = "".join(f"eps{i + 1}" for i in range(self.nslots) if mask & (1 << i))
            f = self.terms[mask]
            parts.append(f"({f})" + (f"*{blade}" if blade else ""))
        return " + ".join(parts)


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
    out = {}
    for exp, c in poly.terms.items():
        if exp[var] % 2:
            raise ValueError("polynomial is not even in the variable")
        new = list(exp)
        new[var] //= 2
        out[tuple(new)] = c
    return MultiPoly(poly.nvars, out)


def expand_slot(element: GradedRatFunc, slot: int) -> GradedRatFunc:
    """Apply the coproduct to one tensor slot.

    Uses the substitution form of the coproduct: even dependence on the slot
    variable is rewritten through x^2 -> u^2 + v^2, and a linear odd factor
    x*eps becomes u*eps_u + v*eps_v. Elements of the generator algebra always
    have this shape.
    """
    if not 0 <= slot < element.nslots:
        raise ValueError("slot out of range")
    nv, ns = element.nvars, element.nslots
    new_nv, new_ns = nv + 1, ns + 1

    def promote(poly: MultiPoly) -> MultiPoly:
        halved = _halve_exponent(poly, slot)
        reps = []
        pair_square = (MultiPoly.variable(new_nv, slot) ** 2
                       + MultiPoly.variable(new_nv, slot + 1) ** 2)
        for t in range(nv):
            if t < slot:
                reps.append(MultiPoly.variable(new_nv, t))
            elif t == slot:
                reps.append(pair_square)
            else:
                reps.append(MultiPoly.variable(new_nv, t + 1))
        return halved.substitute(reps)

    def shift_mask(mask: int) -> int:
        low = mask & ((1 << slot) - 1)
        high = (mask >> slot) << (slot + 1)
        return low | high

    out: dict = {}

    def accumulate(mask, num, den):
        f = RatFunc(num, den)
        if f.is_zero():
            return
        acc = out.get(mask)
        out[mask] = f if acc is None else acc + f

    for mask, f in element.terms.items():
        num, den = f.num, f.den
        if not den.is_even_in(slot):
            # multiply through by the slot variable to make the denominator even
            var = MultiPoly.variable(nv, slot)
            num = num * var
            den = den * var
            if not den.is_even_in(slot):
                raise ValueError("coefficient has mixed parity in the slot variable")
        new_den = promote(den)
        if mask & (1 << slot):
            if not num.is_odd_in(slot):
                raise ValueError("odd-slot coefficient must be odd in the slot variable")
            core = promote(num.shift_out_var(slot))
            base = shift_mask(mask & ~(1 << slot))
            accumulate(base | (1 << slot),
                       core * MultiPoly.variable(new_nv, slot), new_den)
            accumulate(base | (1 << (slot + 1)),
                       core * MultiPoly.variable(new_nv, slot + 1), new_den)
        else:
            if not num.is_even_in(slot):
                raise ValueError("even-slot coefficient must be even in the slot variable")
            accumulate(shift_mask(mask), promote(num), new_den)
    return GradedRatFunc(new_nv, new_ns, out)


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


def fc_equivariance(v: Multivector) -> bool:
    """fc(conj v) agrees with the componentwise conjugate of fc(v)."""
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
