"""Exact scalar arithmetic: Gaussian rationals, multivariate polynomials, rational functions.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, positive
denominator). Everything in this module is immutable and safe to share.
``default_tol`` lives here, away from numpy, so that exact CLI commands can
check ``C2ALG_TOL`` without loading the spectral modules.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
from fractions import Fraction
from typing import Mapping

_ONE = Fraction(1)


# Fraction builds 10**exponent exactly ("1e9999999" alone takes about 10 s), so
# exponents are held to the 4300 digits Python allows in an integer string.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][+-]?(\d+)")
# an error line quotes a refused input up to this length and names its size above it
_QUOTE_LIMIT = 80


def quote_input(text: str) -> str:
    """``repr(text)`` for an error line, or "a 4301-character value" past ``_QUOTE_LIMIT``."""
    return repr(text) if len(text) <= _QUOTE_LIMIT else f"a {len(text)}-character value"


def default_tol() -> float:
    """The ``C2ALG_TOL`` value, or 1e-9; anything but a positive finite number is an error.

    The environment is read on every call, so a new value takes effect at the
    next comparison; only the parse of each raw string is cached.
    """
    return _parse_tol(os.environ.get("C2ALG_TOL", "1e-9"))


@functools.lru_cache(maxsize=16)
def _parse_tol(raw: str) -> float:
    # an error is raised, not cached, so a bad value is refused at every call
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"C2ALG_TOL must be a positive finite number, got {quote_input(raw)}")
    return tol


def rational_from_string(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer / decimal) into a Fraction."""
    try:
        exponent = _EXPONENT.search(text)
        if exponent and int(exponent.group(1)) > _MAX_EXPONENT:
            raise ValueError("exponent too large")
        value = Fraction(text.strip())
        str(value)  # raises past Python's integer-string digit limit: what is read can be printed
        return value
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quote_input(text)}") from None
    except ValueError as exc:
        raise ValueError(f"not a rational: {quote_input(text)}") from exc


def rational_to_string(value: Fraction) -> str:
    """Serialize a Fraction as "p/q" (denominator always present)."""
    return f"{value.numerator}/{value.denominator}"


def format_sum(terms) -> str:
    """Write (order, name, coefficient text) triples as coefficient*name, sorted by order.

    An empty name is a constant term. A coefficient written "1" or "-1"
    leaves the bare name, "+ -" folds to "- ", and the empty sum is "0".
    """
    parts = []
    for _, name, cs in sorted(terms, key=lambda t: t[0]):
        if not name:
            parts.append(cs)
        elif cs == "1":
            parts.append(name)
        elif cs == "-1":
            parts.append(f"-{name}")
        else:
            parts.append(f"{cs}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def integer_numerators(values: list) -> tuple[int, list]:
    """(den, [x * den for x in values]) for Fractions, den the lcm of their denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


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

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @staticmethod
    def from_value(value) -> "GaussianRational":
        """An exact value; anything else, a float included, is a TypeError."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"coefficients are exact (int, Fraction or GaussianRational), "
                        f"not {type(value).__name__}; numeric data is a dense array")

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
        """``3/2``, ``i``, ``-3/2*i`` or ``(1/2 - 3*i)``: the form ``parse_multivector`` reads."""
        if not self.im:
            return str(self.re)
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}*i"
        if not self.re:
            return istr if self.im > 0 else f"-{istr}"
        return f"({self.re} {'+' if self.im > 0 else '-'} {istr})"


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


def _packed_product(x: dict, y: dict) -> dict:
    """Product of integer polynomials {packed exponent: coefficient}; zeros are kept."""
    out: dict = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            k = k1 + k2
            if k in out:
                out[k] += c1 * c2
            else:
                out[k] = c1 * c2
    return out


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    Stored as integer numerators over one denominator, as ``OrthogonalAction``
    is: ``numerators`` maps exponent tuples (length ``nvars``) to ints over
    ``den``, in lowest terms (``den >= 1``, gcd of ``den`` and every numerator
    1, no zero numerator, ``den = 1`` when empty), so ``==`` compares fields.
    The constructor takes ``{exponent: coefficient}``; ``terms`` builds that
    view back as Fractions. ``substitute`` and ``compose_linear`` share one
    engine, which expands the numerators on packed monomials.
    """

    __slots__ = ("nvars", "den", "numerators")

    def __new__(cls, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        nvars = int(nvars)
        exps, coeffs = [], []
        for exp, coeff in (terms or {}).items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for {nvars} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"exponent {exp} has a negative entry")
            exps.append(tuple(exp))
            coeffs.append(Fraction(coeff))
        den, nums = integer_numerators(coeffs)
        return cls._reduced(nvars, dict(zip(exps, nums)), den)

    @classmethod
    def _reduced(cls, nvars: int, numerators: dict, den: int) -> "MultiPoly":
        """Polynomial from integer numerators over den > 0: zeros dropped, one gcd divided out."""
        numerators = {e: c for e, c in numerators.items() if c}
        g = math.gcd(den, *numerators.values())
        if g != 1:
            den //= g
            numerators = {e: c // g for e, c in numerators.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "numerators", numerators)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.nvars, self.terms)

    @property
    def terms(self) -> dict:
        """{exponent: Fraction} of the nonzero terms."""
        return {e: Fraction(c, self.den) for e, c in self.numerators.items()}

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
        return not self.numerators

    def coeff(self, exp: tuple) -> Fraction:
        return Fraction(self.numerators.get(tuple(exp), 0), self.den)

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        den = math.lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        out = {e: c * f1 for e, c in self.numerators.items()}
        for e, c in other.numerators.items():
            out[e] = out.get(e, 0) + c * f2
        return MultiPoly._reduced(self.nvars, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
            return MultiPoly._reduced(
                self.nvars, {e: c * n for e, c in self.numerators.items()}, self.den * d)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.numerators.items():
            for e2, c2 in other.numerators.items():
                exp = tuple(map(operator.add, e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly._reduced(self.nvars, out, self.den * other.den)

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
        return (self.nvars == other.nvars and self.den == other.den
                and self.numerators == other.numerators)

    def leading_monomial_grlex(self) -> tuple:
        """Largest monomial in graded-lexicographic order."""
        if not self.numerators:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.numerators, key=lambda e: (sum(e), e))

    def leading_coeff_grlex(self) -> Fraction:
        return self.coeff(self.leading_monomial_grlex())

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
        den = math.lcm(*[r.den for r in replacements])
        rep_degree = max((sum(e) for r in replacements for e in r.numerators), default=0)
        base = max(map(sum, self.numerators), default=0) * rep_degree + 1
        weights = [base ** i for i in range(new_nvars)]
        forms = [{sum(map(operator.mul, e, weights)): c * (den // r.den)
                  for e, c in r.numerators.items()} for r in replacements]
        return self._substituted(forms, den, new_nvars, base)

    def compose_linear(self, matrix: list[list], den: int = 1) -> "MultiPoly":
        """Return f(M t) for M = matrix / den, i.e. x_k -> sum_i M[k][i] * t_i."""
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape must match variable count")
        lcm, ints = integer_numerators([x for row in matrix for x in row])
        base = max(map(sum, self.numerators), default=0) + 1
        forms = [{base ** i: x for i, x in enumerate(ints[k * n:(k + 1) * n]) if x}
                 for k in range(n)]
        return self._substituted(forms, lcm * den, n, base)

    def _substituted(self, forms: list, den: int, nvars: int, base: int) -> "MultiPoly":
        """f(r) for replacements r_k = forms[k] / den in ``nvars`` variables.

        A form is an integer polynomial whose monomials are packed into one
        int, the exponents as base-``base`` digits, so adding keys multiplies
        monomials; every exponent of f(r) must stay below ``base``. A term of
        f of degree d is scaled by den**(deg f - d), so each output numerator
        is one integer over self.den * den**(deg f).
        """
        degree = max(map(sum, self.numerators), default=0)
        scale = [den ** (degree - d) for d in range(degree + 1)]
        powers: dict = {}
        out: dict = {}
        for exp, a in self.numerators.items():
            a *= scale[sum(exp)]
            term = None
            for k, e in enumerate(exp):
                if e:
                    p = powers.get((k, e))
                    if p is None:
                        p = form = forms[k]
                        for _ in range(e - 1):
                            p = _packed_product(p, form)
                        powers[k, e] = p
                    term = p if term is None else _packed_product(term, p)
            for key, c in ({0: 1} if term is None else term).items():
                if key in out:
                    out[key] += a * c
                else:
                    out[key] = a * c
        numerators = {}
        for key, c in out.items():
            if c:
                exp = [0] * nvars
                for i in range(nvars):
                    key, exp[i] = divmod(key, base)
                numerators[tuple(exp)] = c
        return MultiPoly._reduced(nvars, numerators, self.den * den ** degree)

    def map_exponents(self, relabel) -> "MultiPoly":
        """The terms with each exponent e moved to relabel(e), a one-to-one map of exponents."""
        return MultiPoly._reduced(
            self.nvars, {relabel(e): c for e, c in self.numerators.items()}, self.den)

    def permute_vars(self, perm: list[int]) -> "MultiPoly":
        """Relabel variables: old variable i becomes new variable perm[i]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation")
        old = sorted(range(self.nvars), key=perm.__getitem__)  # new variable j was old[j]
        return self.map_exponents(lambda e: tuple(e[i] for i in old))

    def is_even_in(self, var: int) -> bool:
        return all(e[var] % 2 == 0 for e in self.numerators)

    def is_odd_in(self, var: int) -> bool:
        return all(e[var] % 2 == 1 for e in self.numerators)

    def shift_out_var(self, var: int) -> "MultiPoly":
        """Divide by variable ``var`` (every term must contain it)."""
        if not all(e[var] >= 1 for e in self.numerators):
            raise ValueError("not divisible by the variable")
        return self.map_exponents(lambda e: e[:var] + (e[var] - 1,) + e[var + 1:])

    def __str__(self):
        return format_sum(((sum(e), e), _monomial_name(e), str(c)) for e, c in self.terms.items())

    __repr__ = __str__


def _monomial_name(exp: tuple) -> str:
    """x0*x2^3 for the exponent (1, 0, 3); the constant monomial has the empty name."""
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e > 0)


class RatFunc:
    """Rational function num/den, compared by cross-multiplication.

    No gcd is taken: num/den is kept as built, with only the denominator's
    graded-lexicographic leading coefficient scaled to 1 (and den = 1 when
    num = 0). Equality is num1 * den2 == num2 * den1, exact in MultiPoly
    arithmetic, so it does not depend on the form; for the same reason a
    RatFunc is not hashable.
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
            lc = den.leading_coeff_grlex()
            if lc != 1:
                inv = Fraction(1) / lc
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

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
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def _coerce(self, other) -> "RatFunc | None":
        """other as a RatFunc of this variable count; None for a type it does not know."""
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_const(self.nvars, other)
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.nvars == other.nvars and self.num * other.den == other.num * self.den

    def __str__(self):
        if self.den == MultiPoly.one(self.nvars):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
