"""Exact scalar arithmetic: Gaussian rationals, multivariate polynomials, rational functions.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, positive
denominator). Everything in this module is immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_from_string(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer / decimal) into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def rational_to_string(value: Fraction) -> str:
    """Serialize a Fraction as "p/q" (denominator always present)."""
    return f"{value.numerator}/{value.denominator}"


class GaussianRational:
    """Exact complex number re + im*i with rational re, im.

    Conjugation is ``re + im*i -> re - im*i``; all field operations are exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @staticmethod
    def from_value(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.from_value(other)
        # zero fast paths keep Clifford products cheap for pure-real/pure-imaginary data
        if not self.im:
            if not other.im:
                return GaussianRational._raw(self.re * other.re, _ZERO)
            return GaussianRational._raw(self.re * other.re, self.re * other.im)
        if not other.im:
            return GaussianRational._raw(self.re * other.re, self.im * other.re)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.from_value(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    Terms map exponent tuples (length ``nvars``) to nonzero Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        object.__setattr__(self, "nvars", int(nvars))
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} has wrong length for {nvars} variables")
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(exp)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def one(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: _ONE})

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exp = [0] * nvars
        exp[index] = 1
        return MultiPoly(nvars, {tuple(exp): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, _ZERO)

    def coeff(self, exp: tuple) -> Fraction:
        return self.terms.get(tuple(exp), _ZERO)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp)
            s = c if acc is None else acc + c
            if s:
                out[exp] = s
            elif acc is not None:
                del out[exp]
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.nvars)
            return MultiPoly(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(exp)
                out[exp] = c if acc is None else acc + c
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def leading_monomial_grlex(self) -> tuple:
        """Largest monomial in graded-lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda e: (sum(e), e))

    def leading_coeff_grlex(self) -> Fraction:
        return self.terms[self.leading_monomial_grlex()]

    def substitute(self, replacements: list["MultiPoly"]) -> "MultiPoly":
        """Substitute variable i by replacements[i] (all over a common new ring)."""
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement per variable")
        if replacements:
            new_nvars = replacements[0].nvars
            if any(r.nvars != new_nvars for r in replacements):
                raise ValueError("replacement variable counts differ")
        else:
            new_nvars = 0
        out = MultiPoly.zero(new_nvars)
        power_cache: dict = {}
        for exp, c in self.terms.items():
            term = MultiPoly.constant(new_nvars, c)
            for i, e in enumerate(exp):
                if e:
                    key = (i, e)
                    p = power_cache.get(key)
                    if p is None:
                        p = replacements[i] ** e
                        power_cache[key] = p
                    term = term * p
            out = out + term
        return out

    def compose_linear(self, matrix: list[list[Fraction]]) -> "MultiPoly":
        """Return f(M t), i.e. substitute x_k -> sum_i M[k][i] * t_i."""
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape must match variable count")
        reps = [
            MultiPoly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(matrix[k][i])
                          for i in range(n) if matrix[k][i]})
            for k in range(n)
        ]
        return self.substitute(reps)

    def permute_vars(self, perm: list[int]) -> "MultiPoly":
        """Relabel variables: old variable i becomes new variable perm[i]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation")
        out = {}
        for exp, c in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[perm[i]] = e
            out[tuple(new)] = c
        return MultiPoly(self.nvars, out)

    def extend(self, new_nvars: int, offset: int = 0) -> "MultiPoly":
        """View this polynomial inside a larger ring, shifting variables by offset."""
        if offset + self.nvars > new_nvars:
            raise ValueError("extended ring too small")
        out = {}
        for exp, c in self.terms.items():
            new = [0] * new_nvars
            new[offset:offset + self.nvars] = exp
            out[tuple(new)] = c
        return MultiPoly(new_nvars, out)

    def eval(self, values: Iterable) -> Fraction:
        vals = [Fraction(v) for v in values]
        if len(vals) != self.nvars:
            raise ValueError("value count mismatch")
        total = _ZERO
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def is_even_in(self, var: int) -> bool:
        return all(e[var] % 2 == 0 for e in self.terms)

    def is_odd_in(self, var: int) -> bool:
        return all(e[var] % 2 == 1 for e in self.terms)

    def shift_out_var(self, var: int) -> "MultiPoly":
        """Divide by variable ``var`` (every term must contain it)."""
        if not self.is_odd_in(var) and not all(e[var] >= 1 for e in self.terms):
            raise ValueError("not divisible by the variable")
        out = {}
        for exp, c in self.terms.items():
            new = list(exp)
            new[var] -= 1
            out[tuple(new)] = c
        return MultiPoly(self.nvars, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


@lru_cache(maxsize=None)
def _sympy_ring(nvars: int):
    from sympy import QQ
    from sympy.polys.rings import ring

    return ring(",".join(f"x{i}" for i in range(nvars)), QQ)[0]


def _to_sympy(poly: MultiPoly):
    from sympy import QQ

    R = _sympy_ring(poly.nvars)
    return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in poly.terms.items()})


def _from_sympy(elem, nvars: int) -> MultiPoly:
    terms = {}
    for exp, coeff in elem.terms():
        terms[tuple(exp)] = Fraction(int(coeff.numerator), int(coeff.denominator))
    return MultiPoly(nvars, terms)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of two polynomials (delegated to sympy's sparse rings)."""
    if a.nvars != b.nvars:
        raise ValueError("variable-count mismatch")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.nvars == 0 or (a.is_constant() or b.is_constant()):
        return MultiPoly.one(a.nvars)
    g = _to_sympy(a).gcd(_to_sympy(b))
    return _from_sympy(g, a.nvars)


def poly_divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises if the division is not exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return MultiPoly.zero(a.nvars)
    if b.is_constant():
        return a * (Fraction(1) / b.constant_value())
    q, r = _to_sympy(a).div(_to_sympy(b))
    if r:
        raise ValueError("inexact polynomial division")
    return _from_sympy(q, a.nvars)


class RatFunc:
    """Rational function num/den in canonical form.

    Canonical form: gcd-reduced, with the denominator's graded-lexicographic
    leading coefficient scaled to 1, so equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable-count mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.one(num.nvars)
        else:
            g = poly_gcd(num, den)
            if not (g.is_constant() and g.constant_value() == 1):
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            lc = den.leading_coeff_grlex()
            if lc != 1:
                inv = Fraction(1) / lc
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @staticmethod
    def from_const(nvars: int, c) -> "RatFunc":
        return RatFunc(MultiPoly.constant(nvars, c))

    @staticmethod
    def zero(nvars: int) -> "RatFunc":
        return RatFunc(MultiPoly.zero(nvars))

    @staticmethod
    def one(nvars: int) -> "RatFunc":
        return RatFunc(MultiPoly.one(nvars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_const(self.nvars, other)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        raise TypeError(f"cannot combine RatFunc with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def cross_equal(self, other: "RatFunc") -> bool:
        """Equality by cross multiplication, independent of canonicalization."""
        return self.num * other.den == other.num * self.den

    def substitute(self, replacements: list[MultiPoly]) -> "RatFunc":
        return RatFunc(self.num.substitute(replacements), self.den.substitute(replacements))

    def permute_vars(self, perm: list[int]) -> "RatFunc":
        return RatFunc(self.num.permute_vars(perm), self.den.permute_vars(perm))

    def eval(self, values: Iterable) -> Fraction:
        d = self.den.eval(values)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.eval(values) / d

    def __str__(self):
        if self.den == MultiPoly.one(self.nvars):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
