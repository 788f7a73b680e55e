"""Finite-dimensional graded Clifford-type algebras with Real and *-structures.

Blades are bitmasks over generator indices 1..p+q. Every blade-product sign
comes from one bit-arithmetic rule (``CliffordAlgebra.flip``). A
``Multivector`` is exact: Gaussian-rational coefficients stored as integer
numerators (re, im) per blade over one denominator, in lowest terms, so a
product runs the sparse loop over term pairs on Python ints
(``integer_product``) and ends with one gcd, and sums, conjugations and
comparisons touch no Fraction. A GaussianRational is built only at the
edges: parsing, ``coeff``, formatting and serialisation. Numeric data is not
a ``Multivector`` but a complex array of length 2^n indexed by blade mask
(``Multivector.to_dense`` converts); its one product is by a vector
(``CliffordAlgebra.dense_mul_vector``), and ``dense_bar`` is its Real
structure. These methods import numpy where they run, so exact work never
loads it.
Both modes serve the complexified Clifford algebras CCl(p,q) (all
generators square to +1, Real structure fixes the first p generators and
negates the last q), the Kasparov-style presentation C_{p,q} (last q
generators square to -1), and the interleaved model of CCl(n,n) used by the
unitary-group lifts.
A graded tensor split CCl(V + W) = CCl(V) (x) CCl(W) is a relabelling of
generators (``relabel``) into one joined algebra (``SplitSpec.joined``), whose
reordering sign is the Koszul sign; the tensor product is a ``Multivector``
there.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from functools import lru_cache

from .scalars import GaussianRational, format_sum, integer_numerators, rational_to_string

# _below_parity, and with it every blade sign, is valid for masks below 2^16.
MAX_GENERATORS = 16


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


def _check_signature(p: int, q: int) -> None:
    """Refuse a signature before any per-generator tuple is built."""
    if p + q > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators supported")
    if p < 0 or q < 0:
        raise ValueError("negative signature")


class CliffordAlgebra:
    """Generator data for one algebra: squares, Real signs, *-signs per index."""

    def __init__(self, p, q, squares, bar_signs, star_signs, label, convention="blocked"):
        _check_signature(p, q)
        self.p = p
        self.q = q
        self.dim = p + q
        self.squares = tuple(squares)
        self.bar_signs = tuple(bar_signs)
        self.star_signs = tuple(star_signs)
        self.label = label
        self.convention = convention
        self._dense_tables = None
        self._dense_gen_tables = None
        # masks of generators that pick up a sign under the listed structure
        self.neg_square_mask = sum(1 << i for i, s in enumerate(self.squares) if s < 0)
        self.bar_neg_mask = sum(1 << i for i, s in enumerate(self.bar_signs) if s < 0)
        self.star_neg_mask = sum(1 << i for i, s in enumerate(self.star_signs) if s < 0)

    def __repr__(self):
        return f"<{self.label}>"

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
        """(index, parity, flip, bar_sign) arrays of length 2^n, built on first use.

        For a fixed right blade m2 the sign of the blade product m1 * m2 is
        linear in m1 over GF(2): it is parity[m1 & flip[m2]] (see ``flip``).
        """
        if self._dense_tables is None:
            import numpy as np

            index = np.arange(1 << self.dim)
            grade = np.zeros(1, dtype=np.int64)
            for _ in range(self.dim):
                grade = np.concatenate((grade, grade + 1))
            flip = self.flip(index) & index[-1]  # bits at or above n carry no sign
            parity = 1.0 - 2.0 * (grade & 1)
            bar_sign = parity[index & self.bar_neg_mask]
            self._dense_tables = (index, parity, flip, bar_sign)
        return self._dense_tables

    def _generator_tables(self):
        """(perm, right, left) arrays of shape (n, 2^n), built on first use.

        perm[i] is index ^ (1 << i); right[i] and left[i] are the signs of
        e_perm * e_i and e_i * e_perm, so the coefficients of a * e_i are
        a[perm[i]] * right[i] and those of e_i * a are a[perm[i]] * left[i].
        """
        if self._dense_gen_tables is None:
            import numpy as np

            index, parity, flip = self._tables()[:3]
            gens = 1 << np.arange(self.dim)[:, None]
            perm = index ^ gens
            self._dense_gen_tables = (perm, parity[perm & flip[gens]], parity[gens & flip[perm]])
        return self._dense_gen_tables

    def dense_mul_vector(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Product a * (sum_i u_i e_i) of dense elements ``a`` and a vector ``u``.

        One gather and one contraction over the n generators: O(n 2^n). It is
        the only numeric product: a spectral element is built as a product of
        vectors.
        """
        perm, right, _ = self._generator_tables()
        return u @ (a[perm] * right)

    def dense_bar(self, values: np.ndarray) -> np.ndarray:
        """The Real structure on dense numeric elements."""
        return values.conj() * self._tables()[3]

    # -- constructors for elements -------------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector._raw(self, {})

    def scalar(self, c) -> "Multivector":
        return Multivector(self, {0: c})

    def generator(self, index: int) -> "Multivector":
        """Generator e_index, 1-based."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"generator index {index} out of range 1..{self.dim}")
        return Multivector._raw(self, {1 << (index - 1): (1, 0)})

    def blade(self, indices, coeff=1) -> "Multivector":
        """Product of generators in the given order, times coeff."""
        out = self.scalar(coeff)
        for i in indices:
            out = out * self.generator(i)
        return out

    def from_terms(self, terms: dict) -> "Multivector":
        return Multivector(self, terms)

    def vector(self, coeffs) -> "Multivector":
        """Grade-1 element with the given coefficient list."""
        coeffs = list(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must equal the generator count")
        return Multivector(self, {1 << i: c for i, c in enumerate(coeffs)})

    def parse(self, text: str) -> "Multivector":
        return parse_multivector(text, self)


@lru_cache(maxsize=None)
def ccl(p: int, q: int) -> CliffordAlgebra:
    """CCl(p,q): all squares +1; bar fixes v_1..v_p and negates w_1..w_q."""
    _check_signature(p, q)
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
    _check_signature(p, q)
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
    _check_signature(n, n)
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
    """Sparse exact graded algebra element: blade mask -> Gaussian rational.

    ``terms`` map a mask to Python ints (re, im), the coefficient being
    (re + im i) / ``den``, in canonical form: den >= 1, gcd(den, numerators)
    = 1, no (0, 0) pair, den = 1 when empty. The constructor refuses a mask
    outside 0..2^n - 1 and coerces each coefficient
    (``GaussianRational.from_value``), which refuses floats: numeric data is a
    dense array (``to_dense``), not a ``Multivector``.
    """

    __slots__ = ("algebra", "terms", "den")

    # Every element is exact. The constant stays because the benchmark's
    # product tracer (perfbench/tracing.py, ``classify_mul``) reads it.
    exact = True

    def __init__(self, algebra: CliffordAlgebra, terms: dict):
        size = 1 << algebra.dim
        for m in terms:
            if not 0 <= m < size:
                raise ValueError(f"blade mask {m} is outside 0..{size - 1} for {algebra.label}")
        coeffs = {m: GaussianRational.from_value(c) for m, c in terms.items()}
        self.algebra = algebra
        # the lcm of reduced denominators leaves no common factor
        self.den, ints = integer_numerators([x for c in coeffs.values() for x in (c.re, c.im)])
        self.terms = {m: (x, y) for m, x, y in zip(coeffs, ints[::2], ints[1::2]) if x or y}

    @classmethod
    def _raw(cls, algebra: CliffordAlgebra, terms: dict, den: int = 1) -> "Multivector":
        """Trusted construction from terms already in their final form."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.terms = terms
        self.den = den
        return self

    @classmethod
    def _reduced(cls, algebra: CliffordAlgebra, terms: dict, den: int) -> "Multivector":
        """Exact element from nonzero integer pairs over den > 0, divided by one gcd."""
        if den != 1:
            g = math.gcd(den, *[x for pair in terms.values() for x in pair])
            if g != 1:
                den //= g
                terms = {m: (x // g, y // g) for m, (x, y) in terms.items()}
        return cls._raw(algebra, terms, den)

    def _check(self, other: "Multivector"):
        if self.algebra is not other.algebra:
            raise ValueError(
                f"signature mismatch: {self.algebra.label} vs {other.algebra.label}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            other = self.algebra.scalar(other)
        self._check(other)
        # bring both to the lcm of the denominators, add pairs, drop cancelled blades
        g = math.gcd(self.den, other.den)
        f1, f2 = other.den // g, self.den // g
        out = {m: (x * f1, y * f1) for m, (x, y) in self.terms.items()}
        for m, (x, y) in other.terms.items():
            acc = out.get(m)
            x, y = x * f2, y * f2
            if acc is not None:
                x += acc[0]
                y += acc[1]
                if not (x or y):
                    del out[m]
                    continue
            out[m] = (x, y)
        return Multivector._reduced(self.algebra, out, self.den * f1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._turned(self.algebra, lambda m: (m, 2))

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return self.scale(other)
        self._check(other)
        alg = self.algebra
        return Multivector._reduced(alg, integer_product(alg.flip, self.terms, other.terms),
                                    self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)  # only a scalar reaches here, and scalars are central

    def scale(self, c) -> "Multivector":
        c = GaussianRational.from_value(c)
        if not c:
            return self.algebra.zero()
        # c = (p + q i) / r; a product of nonzero Gaussian integers is nonzero
        r, (p, q) = integer_numerators([c.re, c.im])
        return Multivector._reduced(
            self.algebra, {m: (x * p - y * q, x * q + y * p) for m, (x, y) in self.terms.items()},
            self.den * r)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return (self.algebra is other.algebra and self.den == other.den
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, mask: int):
        c = self.terms.get(mask)
        if c is None:
            return GaussianRational.ZERO
        return GaussianRational._raw(Fraction(c[0], self.den), Fraction(c[1], self.den))

    def grades(self) -> set:
        return {m.bit_count() for m in self.terms}

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        gs = {g & 1 for g in self.grades()}
        if len(gs) == 1:
            return gs.pop()
        return None

    def scalar_part(self):
        return self.coeff(0)

    def _turned(self, algebra: CliffordAlgebra, turn, conj: bool = False) -> "Multivector":
        """Element of ``algebra`` with i^k c at mask m' for each term c at mask m,
        (m', k) = turn(m), c conjugated first when ``conj``. A sign is two
        quarter turns (re, im) -> (-im, re): one rule, with no multiplication,
        that keeps ``den`` and the canonical form.
        """
        out = {}
        for m, (x, y) in self.terms.items():
            if conj:
                y = -y
            m, k = turn(m)
            for _ in range(k & 3):
                x, y = -y, x
            out[m] = (x, y)
        return Multivector._raw(algebra, out, self.den)

    def bar(self) -> "Multivector":
        """Real structure: conjugate coefficients, sign per negated generator."""
        neg = self.algebra.bar_neg_mask
        return self._turned(self.algebra, lambda m: (m, (m & neg).bit_count() << 1), True)

    def star(self) -> "Multivector":
        """*-structure: conjugate-linear anti-involution (blade reversal).

        Reversing k generators takes k(k-1)/2 swaps: k(k-1) quarter turns."""
        neg = self.algebra.star_neg_mask
        return self._turned(self.algebra, lambda m: (
            m, m.bit_count() * (m.bit_count() - 1) + ((m & neg).bit_count() << 1)), True)

    def is_real(self) -> bool:
        """All coefficients real."""
        return not any(y for _, y in self.terms.values())

    def to_dense(self) -> np.ndarray:
        """Complex coefficient array of length 2^n, indexed by blade mask."""
        import numpy as np

        out = np.zeros(1 << self.algebra.dim, dtype=complex)
        if self.terms:
            den = self.den
            out[list(self.terms)] = [complex(x / den, y / den) for x, y in self.terms.values()]
        return out

    def __str__(self):
        return format_multivector(self)

    def __repr__(self):
        return f"Multivector({self.algebra.label}: {format_multivector(self)})"

    def serialized_terms(self) -> list:
        """Sorted (mask, [re, im]) pairs, each part a "p/q" string in lowest terms."""
        out = []
        for m in sorted(self.terms):
            c = self.coeff(m)
            out.append([m, [rational_to_string(c.re), rational_to_string(c.im)]])
        return out


def vector_norm_sq(v: Multivector) -> Fraction:
    """Squared Euclidean norm sum c_i^2 of a real-rational grade-1 element.

    It equals the scalar part of v*v only when v has no weight on a generator
    that squares to -1 (the last q generators of ``kasparov(p, q)``), so such
    weight raises ValueError.
    """
    return Fraction(_norm_sq_numerator(v), v.den * v.den)


def _norm_sq_numerator(v: Multivector) -> int:
    if v.terms and v.grades() != {1}:
        raise ValueError("input must be a pure grade-1 element")
    if any(m & v.algebra.neg_square_mask for m in v.terms):
        raise ValueError("input has weight on a generator that squares to -1")
    if not v.is_real():
        raise ValueError("input must have real rational coefficients")
    return sum(x * x for x, _ in v.terms.values())


# -- exact products on integer numerators -------------------------------------------


def integer_product(flip, left: dict, right: dict) -> dict:
    """Product of exact terms {mask: (re, im)}: its numerators over d1 * d2.

    ``flip`` is ``CliffordAlgebra.flip``; blades whose sums cancel are dropped.
    """
    right = [(m2, flip(m2), x2, y2) for m2, (x2, y2) in right.items()]
    res: dict = {}
    ims: dict = {}
    for m1, (x1, y1) in left.items():
        for m2, f2, x2, y2 in right:
            mask = m1 ^ m2
            if (m1 & f2).bit_count() & 1:
                res[mask] = res.get(mask, 0) - x1 * x2 + y1 * y2
                ims[mask] = ims.get(mask, 0) - x1 * y2 - y1 * x2
            else:
                res[mask] = res.get(mask, 0) + x1 * x2 - y1 * y2
                ims[mask] = ims.get(mask, 0) + x1 * y2 + y1 * x2
    return {m: (re, ims[m]) for m, re in res.items() if re or ims[m]}


# -- graded tensor decomposition ---------------------------------------------------


def relabel(mask: int, positions) -> tuple[int, int]:
    """(sign, mask) of blade ``mask`` after generator i moves to index positions[i].

    The sign is -1 when an odd number of pairs of its generators change
    order. Walking the bits upward, each generator is counted against the
    already placed ones that now sit above it: O(popcount).
    """
    out = swaps = 0
    while mask:
        low = mask & -mask
        mask ^= low
        k = positions[low.bit_length() - 1]
        swaps += (out >> k).bit_count()
        out |= 1 << k
    return (-1 if swaps & 1 else 1), out


def _relabelled(mv: Multivector, algebra: CliffordAlgebra, positions) -> Multivector:
    def turn(m):
        sign, m = relabel(m, positions)
        return m, 1 - sign  # a sign of -1 is two quarter turns

    return mv._turned(algebra, turn)


class SplitSpec:
    """Partition of the generators of an algebra into two graded tensor factors.

    ``joined`` is the algebra on the ``first`` generators, in order, followed
    by the rest; each keeps its square, bar sign and star sign. Its
    reordering sign is the Koszul sign, so it is the graded tensor product:
    a (x) b is the blade a | b << len(first), and product, bar and graded
    star are those of ``Multivector``.
    """

    def __init__(self, algebra: CliffordAlgebra, first_indices):
        first_indices = list(first_indices)
        first = sorted(set(first_indices))
        if any(i < 1 or i > algebra.dim for i in first):
            raise ValueError("inconsistent partition: index out of range")
        if len(first) != len(first_indices):
            raise ValueError("inconsistent partition: repeated index")
        self.algebra = algebra
        self.first = first
        self.second = [i for i in range(1, algebra.dim + 1) if i not in first]
        # generator k of joined is generator order[k] of algebra (0-based)
        order = [i - 1 for i in first + self.second]
        self._from_joined = order
        self._to_joined = [order.index(i) for i in range(algebra.dim)]
        self.joined = CliffordAlgebra(
            algebra.p, algebra.q,
            [algebra.squares[i] for i in order],
            [algebra.bar_signs[i] for i in order],
            [algebra.star_signs[i] for i in order],
            label=f"{algebra.label}|{first}(x){self.second}")

    def split(self, mv: Multivector) -> Multivector:
        if mv.algebra is not self.algebra:
            raise ValueError("element does not live in the split algebra")
        return _relabelled(mv, self.joined, self._to_joined)

    def merge(self, t: Multivector) -> Multivector:
        if t.algebra is not self.joined:
            raise ValueError("element does not live in this split's tensor product")
        return _relabelled(t, self.algebra, self._from_joined)


def graded_tensor_split(mv: Multivector, first_indices) -> tuple[SplitSpec, Multivector]:
    spec = SplitSpec(mv.algebra, first_indices)
    return spec, spec.split(mv)


# -- Kasparov comparison isomorphism ------------------------------------------------


def _turn_last_q(mv: Multivector, target: CliffordAlgebra, turn: int) -> Multivector:
    """mv in ``target``, each coefficient times i^(turn * k) for k its last-q generators."""
    w_mask = ((1 << mv.algebra.q) - 1) << mv.algebra.p
    return mv._turned(target, lambda m: (m, turn * (m & w_mask).bit_count()))


def to_kasparov(mv: Multivector) -> Multivector:
    """Isomorphism CCl(p,q) -> C_{p,q}: v_i -> eps_i, w_j -> i*e_j.

    The source must be blocked CCl(p,q): every square +1, and bar negating
    exactly the last q generators, which are the ones sent to i*e_j.
    """
    alg = mv.algebra
    if alg.squares != (1,) * alg.dim or alg.bar_signs != (1,) * alg.p + (-1,) * alg.q:
        raise ValueError(f"to_kasparov needs blocked CCl(p,q), not {alg.label}")
    return _turn_last_q(mv, kasparov(alg.p, alg.q), 1)


def from_kasparov(mv: Multivector) -> Multivector:
    """Inverse of :func:`to_kasparov`; the source must be ``kasparov(p, q)``."""
    alg = mv.algebra
    if alg is not kasparov(alg.p, alg.q):
        raise ValueError(f"from_kasparov needs C_({alg.p},{alg.q}), not {alg.label}")
    return _turn_last_q(mv, ccl(alg.p, alg.q), -1)


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


def _blade_name(mask: int) -> str:
    """e1e3 for mask 5; the scalar blade 0 has the empty name."""
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def format_terms(pairs) -> str:
    """Write (mask, coefficient text) pairs as coefficient*blade, ordered by (grade, mask)."""
    return format_sum(((m.bit_count(), m), _blade_name(m), cs) for m, cs in pairs)


def format_multivector(mv: Multivector) -> str:
    return format_terms((m, str(mv.coeff(m))) for m in mv.terms)
