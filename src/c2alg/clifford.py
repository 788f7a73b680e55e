"""Finite-dimensional graded Clifford-type algebras with Real and *-structures.

Blades are bitmasks over generator indices 1..p+q; coefficients are either
exact (GaussianRational) or numeric (complex). Every blade-product sign comes
from one bit-arithmetic rule (``CliffordAlgebra.flip``). Exact products run a
sparse loop over term pairs; numeric products run a dense kernel over complex
arrays of length 2^n indexed by blade mask.
Both serve the complexified Clifford algebras CCl(p,q) (all generators square
to +1, Real structure fixes the first p generators and negates the last q),
the Kasparov-style presentation C_{p,q} (last q generators square to -1), and
the interleaved model of CCl(n,n) used by the unitary-group lifts.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalars import GaussianRational

# _below_parity, and with it every blade sign, is valid for masks below 2^16.
MAX_GENERATORS = 16

# Element budget of one temporary block in the dense kernel: support elements
# are taken in chunks whose gathered copies (chunk x 2^n, times the rows of a
# gathered batch) stay within it. 2^14 complex values (256 KiB) fit in cache;
# 2^15 and above measured slower on products at n = 8..10.
_DENSE_BLOCK = 16384


def _below_parity(m):
    """Bit i is set when an odd number of the bits of m lie below i (m < 2^16).

    Works on Python ints and on numpy integer arrays alike. For blades a, b
    the word a b sorts with popcount(a & _below_parity(b)) swaps, mod 2.
    """
    m = m << 1
    m ^= m << 1
    m ^= m << 2
    m ^= m << 4
    m ^= m << 8
    return m


class CliffordAlgebra:
    """Generator data for one algebra: squares, Real signs, *-signs per index."""

    def __init__(self, p, q, squares, bar_signs, star_signs, label, convention="blocked"):
        dim = p + q
        if dim > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators supported")
        if p < 0 or q < 0:
            raise ValueError("negative signature")
        self.p = p
        self.q = q
        self.dim = dim
        self.squares = tuple(squares)
        self.bar_signs = tuple(bar_signs)
        self.star_signs = tuple(star_signs)
        self.label = label
        self.convention = convention
        self._dense_tables = None
        # masks of generators that pick up a sign under the listed structure
        self.neg_square_mask = sum(1 << i for i, s in enumerate(self.squares) if s < 0)
        self.bar_neg_mask = sum(1 << i for i, s in enumerate(self.bar_signs) if s < 0)
        self.star_neg_mask = sum(1 << i for i, s in enumerate(self.star_signs) if s < 0)

    def __repr__(self):
        return f"<{self.label}>"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def flip(self, m2):
        """Mask f with sign(e_m1 * e_m2) = (-1)^popcount(m1 & f), for every m1.

        Bit i is set when an odd number of the generators of m2 sit below i
        (the reordering swaps), toggled on the negative-square generators
        that m2 contains. m2 may be an int or a numpy integer array.
        """
        return _below_parity(m2) ^ (m2 & self.neg_square_mask)

    def blade_product(self, m1: int, m2: int) -> tuple[int, int]:
        """(sign, mask) of the product of basis blades m1 * m2."""
        return (-1 if (m1 & self.flip(m2)).bit_count() & 1 else 1), m1 ^ m2

    # -- dense numeric kernel ------------------------------------------------------

    def _tables(self):
        """(index, parity, flip, star_sign) arrays of length 2^n, built on first use.

        For a fixed right blade m2 the sign of the blade product m1 * m2 is
        linear in m1 over GF(2): it is parity[m1 & flip[m2]] (see ``flip``).
        """
        if self._dense_tables is None:
            index = np.arange(1 << self.dim)
            grade = np.zeros(1, dtype=np.int64)
            for _ in range(self.dim):
                grade = np.concatenate((grade, grade + 1))
            flip = self.flip(index) & index[-1]  # bits at or above n carry no sign
            parity = 1.0 - 2.0 * (grade & 1)
            star_sign = np.where(grade % 4 >= 2, -1.0, 1.0) * parity[index & self.star_neg_mask]
            self._dense_tables = (index, parity, flip, star_sign)
        return self._dense_tables

    def dense_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product a * b of dense numeric elements (complex arrays by blade mask).

        ``a`` may carry leading batch axes; each of its rows is multiplied by
        ``b``. The loop runs over the support of the sparser operand and adds
        one signed, XOR-permuted copy of the other operand per support
        element. The support of a batch is every blade any row uses; the
        copies of ``b`` made for it serve all rows, so a chunk of them is
        applied as one matrix product, and it is chosen unless the support
        of ``b`` times the row count is smaller.
        """
        index, parity, flip, _ = self._tables()
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
        a_support = np.flatnonzero(np.any(a.reshape(-1, index.size), axis=0))
        b_support = np.flatnonzero(b)
        left = a_support.size * index.size < b_support.size * a.size
        support = a_support if left else b_support
        step = max(1, _DENSE_BLOCK // (index.size if left else out.size))
        for start in range(0, support.size, step):
            m = support[start:start + step, None]
            idx = index ^ m
            if left:
                out += a[..., m[:, 0]] @ (parity[m & flip[idx]] * b[idx])
            else:
                out += b[m[:, 0]] @ (parity[idx & flip[m]] * a[..., idx])
        return out

    def dense_star(self, values: np.ndarray) -> np.ndarray:
        """The *-structure on dense numeric elements."""
        return values.conj() * self._tables()[3]

    def from_dense(self, values: np.ndarray) -> "Multivector":
        support = np.flatnonzero(values)
        return Multivector(self, dict(zip(support.tolist(), values[support].tolist())))

    # -- constructors for elements -------------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def scalar(self, c) -> "Multivector":
        c = self.coerce_coeff(c)
        return Multivector(self, {0: c} if c else {})

    def generator(self, index: int) -> "Multivector":
        """Generator e_index, 1-based."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"generator index {index} out of range 1..{self.dim}")
        return Multivector(self, {1 << (index - 1): GaussianRational.ONE})

    def blade(self, indices, coeff=1) -> "Multivector":
        """Product of generators in the given order, times coeff."""
        out = self.scalar(coeff)
        for i in indices:
            out = out * self.generator(i)
        return out

    def from_terms(self, terms: dict) -> "Multivector":
        return Multivector(self, {m: c for m, c in terms.items() if c})

    def vector(self, coeffs) -> "Multivector":
        """Grade-1 element with the given coefficient list."""
        coeffs = list(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must equal the generator count")
        terms = {}
        for i, c in enumerate(coeffs):
            c = self.coerce_coeff(c)
            if c:
                terms[1 << i] = c
        return Multivector(self, terms)

    @staticmethod
    def coerce_coeff(c):
        if isinstance(c, GaussianRational):
            return c
        if isinstance(c, (int, Fraction)):
            return GaussianRational(c)
        if isinstance(c, (float, complex)):
            return complex(c)
        raise TypeError(f"unsupported coefficient type {type(c).__name__}")

    def parse(self, text: str) -> "Multivector":
        return parse_multivector(text, self)


@lru_cache(maxsize=None)
def ccl(p: int, q: int) -> CliffordAlgebra:
    """CCl(p,q): all squares +1; bar fixes v_1..v_p and negates w_1..w_q."""
    return CliffordAlgebra(
        p, q,
        squares=(1,) * (p + q),
        bar_signs=(1,) * p + (-1,) * q,
        star_signs=(1,) * (p + q),
        label=f"CCl({p},{q})",
    )


@lru_cache(maxsize=None)
def kasparov(p: int, q: int) -> CliffordAlgebra:
    """Kasparov presentation C_{p,q}: eps_i^2 = 1, e_j^2 = -1, bar trivial, e_j* = -e_j."""
    return CliffordAlgebra(
        p, q,
        squares=(1,) * p + (-1,) * q,
        bar_signs=(1,) * (p + q),
        star_signs=(1,) * p + (-1,) * q,
        label=f"C_({p},{q})",
    )


@lru_cache(maxsize=None)
def ccl_interleaved(n: int) -> CliffordAlgebra:
    """CCl(n,n) in the interleaved basis: odd indices trivial, even indices sign."""
    bar = tuple(1 if i % 2 == 0 else -1 for i in range(2 * n))
    return CliffordAlgebra(
        n, n,
        squares=(1,) * (2 * n),
        bar_signs=bar,
        star_signs=(1,) * (2 * n),
        label=f"CCl({n},{n})-interleaved",
        convention="interleaved",
    )


class Multivector:
    """Sparse graded algebra element: blade mask -> coefficient.

    Coefficients are uniformly exact (GaussianRational) or numeric (complex);
    the two kinds never mix inside one element.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CliffordAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def exact(self) -> bool:
        for c in self.terms.values():
            return isinstance(c, GaussianRational)
        return True

    def _check(self, other: "Multivector"):
        if self.algebra is not other.algebra:
            raise ValueError(
                f"signature mismatch: {self.algebra.label} vs {other.algebra.label}")

    @staticmethod
    def _align(a: "Multivector", b: "Multivector"):
        """Float contagion: an exact operand converts when paired with numeric data."""
        if a.terms and b.terms and a.exact != b.exact:
            return a.to_numeric(), b.to_numeric()
        return a, b

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            other = self.algebra.scalar(other)
        self._check(other)
        self, other = Multivector._align(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            s = c if acc is None else acc + c
            if s:
                out[m] = s
            elif acc is not None:
                del out[m]
        return Multivector(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            return self.scale(other)
        self._check(other)
        self, other = Multivector._align(self, other)
        if not (self.exact and other.exact):
            alg = self.algebra
            return alg.from_dense(alg.dense_mul(self.to_dense(), other.to_dense()))
        flip = self.algebra.flip
        right = [(m2, flip(m2), c2) for m2, c2 in other.terms.items()]
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, f2, c2 in right:
                c = c1 * c2
                if (m1 & f2).bit_count() & 1:
                    c = -c
                mask = m1 ^ m2
                acc = out.get(mask)
                out[mask] = c if acc is None else acc + c
        return Multivector(self.algebra, {m: c for m, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Multivector":
        c = self.algebra.coerce_coeff(c)
        if not c:
            return self.algebra.zero()
        mv = self
        if mv.terms and isinstance(c, complex) != (not mv.exact):
            if isinstance(c, complex):
                mv = mv.to_numeric()
            else:
                c = complex(c)
        return Multivector(mv.algebra, {m: k * c for m, k in mv.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, mask: int):
        c = self.terms.get(mask)
        if c is None:
            return GaussianRational.ZERO if self.exact else 0j
        return c

    def grades(self) -> set:
        return {m.bit_count() for m in self.terms}

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        gs = {g & 1 for g in self.grades()}
        if len(gs) == 1:
            return gs.pop()
        return None

    def grade_part(self, k: int) -> "Multivector":
        return Multivector(self.algebra,
                           {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def scalar_part(self):
        return self.coeff(0)

    def bar(self) -> "Multivector":
        """Real structure: conjugate coefficients, sign per negated generator."""
        neg = self.algebra.bar_neg_mask
        out = {}
        for m, c in self.terms.items():
            c = c.conjugate()
            if (m & neg).bit_count() & 1:
                c = -c
            out[m] = c
        return Multivector(self.algebra, out)

    def star(self) -> "Multivector":
        """*-structure: conjugate-linear anti-involution (blade reversal)."""
        neg = self.algebra.star_neg_mask
        out = {}
        for m, c in self.terms.items():
            c = c.conjugate()
            k = m.bit_count()
            if (k * (k - 1) // 2) & 1:
                c = -c
            if (m & neg).bit_count() & 1:
                c = -c
            out[m] = c
        return Multivector(self.algebra, out)

    def is_real(self, tol: float = 0.0) -> bool:
        """All coefficients real (exactly, or within tol for numeric data)."""
        if self.exact:
            return all(c.is_real for c in self.terms.values())
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def to_numeric(self) -> "Multivector":
        if not self.exact:
            return self
        return Multivector(self.algebra, {m: complex(c) for m, c in self.terms.items()})

    def to_dense(self) -> np.ndarray:
        """Complex coefficient array of length 2^n, indexed by blade mask."""
        out = np.zeros(1 << self.algebra.dim, dtype=complex)
        terms = self.to_numeric().terms
        if terms:
            out[list(terms)] = list(terms.values())
        return out

    def max_diff(self, other: "Multivector") -> float:
        """Max absolute coefficient difference (numeric comparison); NaN propagates."""
        self._check(other)
        masks = set(self.terms) | set(other.terms)
        diffs = [complex(self.terms.get(m, 0)) - complex(other.terms.get(m, 0)) for m in masks]
        return float(np.max(np.abs(diffs), initial=0.0))

    def __str__(self):
        return format_multivector(self)

    def __repr__(self):
        return f"Multivector({self.algebra.label}: {format_multivector(self)})"

    def serialized_terms(self) -> list:
        """Sorted (mask, [re, im]) pairs; exact parts as "p/q" strings."""
        out = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if isinstance(c, GaussianRational):
                out.append([m, [f"{c.re.numerator}/{c.re.denominator}",
                                f"{c.im.numerator}/{c.im.denominator}"]])
            else:
                out.append([m, [c.real, c.imag]])
        return out


def vector_norm_sq(v: Multivector) -> Fraction:
    """Squared Euclidean norm of a real-rational grade-1 element.

    Equals the scalar part of v*v since every generator squares to +1.
    """
    if v.terms and v.grades() != {1}:
        raise ValueError("input must be a pure grade-1 element")
    total = Fraction(0)
    for _, c in v.terms.items():
        if not isinstance(c, GaussianRational) or not c.is_real:
            raise ValueError("input must have real rational coefficients")
        total += c.re * c.re
    return total


# -- graded tensor decomposition ---------------------------------------------------


class TensorElement:
    """Element of a graded tensor product of two blade algebras.

    Terms map (mask1, mask2) to coefficients; the product obeys the Koszul
    rule (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd.
    """

    __slots__ = ("alg1", "alg2", "terms")

    def __init__(self, alg1: CliffordAlgebra, alg2: CliffordAlgebra, terms: dict):
        self.alg1 = alg1
        self.alg2 = alg2
        self.terms = {k: c for k, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            s = c if acc is None else acc + c
            if s:
                out[k] = s
            elif acc is not None:
                del out[k]
        return TensorElement(self.alg1, self.alg2, out)

    def __neg__(self):
        return TensorElement(self.alg1, self.alg2, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        flip1, flip2 = self.alg1.flip, self.alg2.flip
        right = [(a2, b2, flip1(a2), flip2(b2), a2.bit_count(), c2)
                 for (a2, b2), c2 in other.terms.items()]
        for (a1, b1), c1 in self.terms.items():
            odd_b1 = b1.bit_count() & 1
            for a2, b2, f1, f2, grade_a2, c2 in right:
                c = c1 * c2
                if ((a1 & f1).bit_count() + (b1 & f2).bit_count() + (odd_b1 & grade_a2)) & 1:
                    c = -c
                key = (a1 ^ a2, b1 ^ b2)
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
        return TensorElement(self.alg1, self.alg2, out)

    def bar(self) -> "TensorElement":
        n1, n2 = self.alg1.bar_neg_mask, self.alg2.bar_neg_mask
        out = {}
        for (a, b), c in self.terms.items():
            c = c.conjugate()
            if ((a & n1).bit_count() + (b & n2).bit_count()) & 1:
                c = -c
            out[(a, b)] = c
        return TensorElement(self.alg1, self.alg2, out)

    def star(self) -> "TensorElement":
        """Graded *: (a (x) b)* = (-1)^{|a||b|} a* (x) b*."""
        out = {}
        s1, s2 = self.alg1.star_neg_mask, self.alg2.star_neg_mask
        for (a, b), c in self.terms.items():
            c = c.conjugate()
            ka, kb = a.bit_count(), b.bit_count()
            sign = (ka * (ka - 1) // 2) + (kb * (kb - 1) // 2) + ka * kb
            sign += (a & s1).bit_count() + (b & s2).bit_count()
            if sign & 1:
                c = -c
            out[(a, b)] = c
        return TensorElement(self.alg1, self.alg2, out)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"TensorElement({self.terms})"


class SplitSpec:
    """Partition of the generators of an algebra into two tensor factors."""

    def __init__(self, algebra: CliffordAlgebra, first_indices):
        first = sorted(set(first_indices))
        if any(i < 1 or i > algebra.dim for i in first):
            raise ValueError("inconsistent partition: index out of range")
        if len(first) != len(set(first_indices)):
            raise ValueError("inconsistent partition: repeated index")
        self.algebra = algebra
        self.first = first
        self.second = [i for i in range(1, algebra.dim + 1) if i not in set(first)]
        self.first_mask = sum(1 << (i - 1) for i in self.first)
        self.second_mask = sum(1 << (i - 1) for i in self.second)

        def sub_algebra(indices):
            squares = tuple(algebra.squares[i - 1] for i in indices)
            bars = tuple(algebra.bar_signs[i - 1] for i in indices)
            stars = tuple(algebra.star_signs[i - 1] for i in indices)
            p = sum(1 for s in bars if s > 0)
            q = len(bars) - p
            return CliffordAlgebra(p, q, squares, bars, stars,
                                   label=f"{algebra.label}|{indices}")

        self.alg1 = sub_algebra(self.first)
        self.alg2 = sub_algebra(self.second)

    def split(self, mv: Multivector) -> TensorElement:
        if mv.algebra is not self.algebra:
            raise ValueError("element does not live in the split algebra")
        out = {}
        for mask, coeff in mv.terms.items():
            m1 = sum(1 << k for k, i in enumerate(self.first) if mask >> (i - 1) & 1)
            m2 = sum(1 << k for k, i in enumerate(self.second) if mask >> (i - 1) & 1)
            # moving each first-factor generator left past the second-factor ones below it
            swaps = (mask & self.first_mask & _below_parity(mask & self.second_mask)).bit_count()
            out[(m1, m2)] = -coeff if swaps & 1 else coeff
        return TensorElement(self.alg1, self.alg2, out)

    def merge(self, t: TensorElement) -> Multivector:
        out: dict = {}
        for (m1, m2), coeff in t.terms.items():
            mask = (sum(1 << (i - 1) for k, i in enumerate(self.first) if m1 >> k & 1)
                    | sum(1 << (i - 1) for k, i in enumerate(self.second) if m2 >> k & 1))
            swaps = (mask & self.first_mask & _below_parity(mask & self.second_mask)).bit_count()
            c = -coeff if swaps & 1 else coeff
            acc = out.get(mask)
            out[mask] = c if acc is None else acc + c
        return Multivector(self.algebra, {m: c for m, c in out.items() if c})


def graded_tensor_split(mv: Multivector, first_indices) -> tuple[SplitSpec, TensorElement]:
    spec = SplitSpec(mv.algebra, first_indices)
    return spec, spec.split(mv)


# -- Kasparov comparison isomorphism ------------------------------------------------


def to_kasparov(mv: Multivector) -> Multivector:
    """Isomorphism CCl(p,q) -> C_{p,q}: v_i -> eps_i, w_j -> i*e_j."""
    alg = mv.algebra
    target = kasparov(alg.p, alg.q)
    w_mask = ((1 << alg.q) - 1) << alg.p
    i_unit = GaussianRational.I
    out = {}
    for mask, c in mv.terms.items():
        k = (mask & w_mask).bit_count()
        if k:
            c = c * (i_unit ** k) if isinstance(c, GaussianRational) else c * (1j ** k)
        out[mask] = c
    return Multivector(target, out)


def from_kasparov(mv: Multivector) -> Multivector:
    """Inverse of :func:`to_kasparov`."""
    alg = mv.algebra
    target = ccl(alg.p, alg.q)
    w_mask = ((1 << alg.q) - 1) << alg.p
    minus_i = -GaussianRational.I
    out = {}
    for mask, c in mv.terms.items():
        k = (mask & w_mask).bit_count()
        if k:
            c = c * (minus_i ** k) if isinstance(c, GaussianRational) else c * ((-1j) ** k)
        out[mask] = c
    return Multivector(target, out)


# -- expression grammar --------------------------------------------------------------

# Deepest parenthesis nesting the expression parser accepts; each level costs
# three Python frames, so this stays well inside the default recursion limit.
_MAX_NESTING = 100

_TOKEN = _re.compile(
    r"""\s*(?:
        (?P<blade>(?:[eE]\d+)+)
      | (?P<num>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<imag>[iI])
      | (?P<op>[+\-*()])
    )""",
    _re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse multivector expression near {text[pos:pos+12]!r}")
        pos = m.end()
        if m.lastgroup == "blade":
            tokens.append(("blade", [int(s) for s in _re.findall(r"\d+", m.group("blade"))]))
        elif m.lastgroup == "num":
            try:
                tokens.append(("num", Fraction(m.group("num"))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('num')!r}") from None
        elif m.lastgroup == "imag":
            tokens.append(("i", None))
        else:
            tokens.append((m.group("op"), None))
    tail = text[pos:].strip()
    if tail:
        raise ValueError(f"cannot parse multivector expression near {tail[:12]!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, algebra: CliffordAlgebra):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_expr(self) -> Multivector:
        value = self.parse_term()
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.next()
                value = value + self.parse_term()
            elif kind == "-":
                self.next()
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> Multivector:
        value = self.parse_factor()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.next()
                value = value * self.parse_factor()
            elif kind in ("num", "i", "blade", "("):
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self) -> Multivector:
        kind, payload = self.next()
        negate = False
        while kind in ("+", "-"):
            negate ^= kind == "-"
            kind, payload = self.next()
        if kind == "num":
            value = self.algebra.scalar(payload)
        elif kind == "i":
            value = self.algebra.scalar(GaussianRational.I)
        elif kind == "blade":
            value = self.algebra.blade(payload)
        elif kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ValueError(
                    f"multivector expression nests deeper than {_MAX_NESTING} parentheses")
            value = self.parse_expr()
            self.depth -= 1
            kind, _ = self.next()
            if kind != ")":
                raise ValueError("unbalanced parenthesis in multivector expression")
        else:
            raise ValueError("malformed multivector expression")
        return -value if negate else value


def parse_multivector(text: str, algebra: CliffordAlgebra) -> Multivector:
    """Parse expressions like "3/4*e1e3 + i*e2 - 1/2" (case/space insensitive)."""
    if not text.strip():
        raise ValueError("empty multivector expression")
    tokens = _tokenize(text)
    parser = _Parser(tokens, algebra)
    value = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ValueError("trailing tokens in multivector expression")
    return value


def _format_exact_coeff(c: GaussianRational) -> str:
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    sign = "+" if c.im > 0 else "-"
    mag = abs(c.im)
    istr = "i" if mag == 1 else f"{mag}*i"
    return f"({c.re} {sign} {istr})"


def format_multivector(mv: Multivector) -> str:
    if not mv.terms:
        return "0"
    parts = []
    for mask in sorted(mv.terms, key=lambda m: (m.bit_count(), m)):
        c = mv.terms[mask]
        blade = "".join(f"e{i + 1}" for i in range(mv.algebra.dim) if mask & (1 << i))
        if isinstance(c, GaussianRational):
            cs = _format_exact_coeff(c)
        else:
            cs = _format_numeric_coeff(c)
        if not blade:
            parts.append(cs)
        elif cs == "1":
            parts.append(blade)
        elif cs == "-1":
            parts.append(f"-{blade}")
        else:
            parts.append(f"{cs}*{blade}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def _format_numeric_coeff(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}*i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r} {sign} {abs(c.imag)!r}*i)"

