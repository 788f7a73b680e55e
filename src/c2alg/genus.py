"""Multiplicative sequences, the A-hat genus, and Pontryagin-number arithmetic.

A multiplicative sequence is built from the Taylor coefficients of an even
characteristic power series R(z) (z standing for the square of a formal
root). Its degree-k polynomial in the Pontryagin classes p_1..p_k is obtained
by expanding log R over formal roots, rewriting power sums in elementary
symmetric polynomials with Newton's identities, and exponentiating, all in
exact rational arithmetic.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .scalars import MultiPoly, integer_numerators, rational_from_string

# Largest manifold dimension that `ManifoldSpec.parse` and `CharClassData.from_json`
# accept. The cost of the degree-dim/4 K-polynomial grows with the partitions of
# dim/4: on a 2-vCPU Xeon VM, data plus genus from a cold sequence cache take
# 0.60-0.79 s at dim 40 (CP20, CP2^10, CP4^5, CP10^2), 1.7 s at dim 44 (CP22)
# and 3.6 s at dim 48 (CP24).
MAX_DIM = 40

# -- rational power series helpers (dense coefficient lists) -------------------------


def series_inv(a: list[Fraction], order: int) -> list[Fraction]:
    if not a or not a[0]:
        raise ZeroDivisionError("series has no inverse")
    inv0 = Fraction(1) / a[0]
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                acc += a[k] * out[n - k]
        out[n] = -inv0 * acc
    return out

def series_log(a: list[Fraction], order: int) -> list[Fraction]:
    """log of a series with constant term 1; result has zero constant term."""
    if not a or a[0] != 1:
        raise ValueError("series_log expects constant term 1")
    lcoef = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        an = a[n] if n < len(a) else Fraction(0)
        acc = n * an
        for k in range(1, n):
            ak = a[n - k] if n - k < len(a) else Fraction(0)
            acc -= k * lcoef[k] * ak
        lcoef[n] = acc / n
    return lcoef


@lru_cache(maxsize=None)
def ahat_series(order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients of (sqrt(z)/2)/sinh(sqrt(z)/2) up to z^order."""
    sinh_ratio = [Fraction(1, 4 ** k * math.factorial(2 * k + 1)) for k in range(order + 1)]
    return tuple(series_inv(sinh_ratio, order))


# -- multiplicative sequences ---------------------------------------------------------


def _weighted_degree(exp: tuple) -> int:
    return sum((i + 1) * e for i, e in enumerate(exp))


def _truncate_weighted(poly: MultiPoly, bound: int) -> MultiPoly:
    return MultiPoly(poly.nvars,
                     {e: c for e, c in poly.terms.items() if _weighted_degree(e) <= bound})


def _weighted_part(poly: MultiPoly, k: int) -> MultiPoly:
    return MultiPoly(poly.nvars,
                     {e: c for e, c in poly.terms.items() if _weighted_degree(e) == k})


class MultSeq:
    """Multiplicative sequence attached to an even characteristic series.

    ``series(order)`` must yield Taylor coefficients [1, a1, a2, ...] of R(z);
    K-polynomials are memoized per degree. Variable i of the degree-k
    polynomial is the Pontryagin class p_{i+1} (weight i+1).
    """

    def __init__(self, series, name: str = ""):
        self._series = series
        self.name = name
        self._cache: dict[int, MultiPoly] = {}

    def characteristic_coefficients(self, order: int) -> list[Fraction]:
        coeffs = list(self._series(order))
        if coeffs[0] != 1:
            raise ValueError("characteristic series must start with 1")
        return coeffs

    def k_polynomial(self, k: int) -> MultiPoly:
        if k < 0:
            raise ValueError("negative degree")
        if k == 0:
            return MultiPoly.one(0)
        poly = self._cache.get(k)
        if poly is None:
            poly = self._compute(k)
            self._cache[k] = poly
        return poly

    def _compute(self, k: int) -> MultiPoly:
        logc = series_log(self.characteristic_coefficients(k), k)
        n = k
        e = [None] + [MultiPoly.variable(n, i) for i in range(n)]
        # Newton's identities: P_m = sum (-1)^{i-1} e_i P_{m-i} + (-1)^{m-1} m e_m
        P: list = [None] * (k + 1)
        for m in range(1, k + 1):
            acc = e[m] * Fraction((-1) ** (m - 1) * m)
            for i in range(1, m):
                term = e[i] * P[m - i]
                if i % 2 == 0:
                    term = -term
                acc = acc + term
            P[m] = acc
        S = MultiPoly.zero(n)
        for m in range(1, k + 1):
            if logc[m]:
                S = S + P[m] * logc[m]
        # exp(S), truncated to weighted degree k
        total = MultiPoly.one(n)
        term = MultiPoly.one(n)
        for j in range(1, k + 1):
            term = _truncate_weighted(term * S, k) * Fraction(1, j)
            total = total + term
        return _weighted_part(total, k)


@lru_cache(maxsize=None)
def ahat_sequence() -> MultSeq:
    return MultSeq(ahat_series, name="A-hat")


def ahat_polynomial(k: int) -> MultiPoly:
    """Degree-k A-hat polynomial in p_1..p_k (supported range 1 <= k <= 4)."""
    if not 1 <= k <= 4:
        raise ValueError("degree out of supported range 1..4")
    return ahat_sequence().k_polynomial(k)


# -- Pontryagin data ------------------------------------------------------------------


def partitions(k: int) -> Iterable[tuple[int, ...]]:
    """Partitions of k as descending tuples."""
    if k == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(k, k)


def _normalize_partition(parts) -> tuple[int, ...]:
    tup = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p <= 0 for p in tup):
        raise ValueError("partition parts must be positive")
    return tup


class CharClassData:
    """Dimension plus Pontryagin monomial numbers of a manifold class.

    Only partitions of dim/4 carry values; missing entries are zero. The
    dimension-0 class defaults to the unit (empty monomial evaluates to 1).
    """

    __slots__ = ("dim", "numbers")

    def __init__(self, dim: int, numbers: Mapping | None = None):
        dim = int(dim)
        if dim < 0:
            raise ValueError("negative dimension")
        clean: dict[tuple[int, ...], Fraction] = {}
        if numbers:
            if dim % 4 != 0:
                raise ValueError("Pontryagin numbers require dimension divisible by 4")
            k = dim // 4
            for part, val in numbers.items():
                part = _normalize_partition(part)
                if sum(part) != k:
                    raise ValueError(f"partition {part} does not have weight {k}")
                val = Fraction(val)
                if val:
                    clean[part] = val
        if dim == 0 and () not in clean:
            clean[()] = Fraction(1)
        self.dim = dim
        self.numbers = clean

    @classmethod
    def _raw(cls, dim: int, numbers: dict) -> "CharClassData":
        # trusted: descending partitions of dim/4 mapped to nonzero Fractions
        self = object.__new__(cls)
        self.dim = dim
        self.numbers = numbers
        return self

    def number(self, partition) -> Fraction:
        return self.numbers.get(_normalize_partition(partition), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, CharClassData):
            return NotImplemented
        return self.dim == other.dim and self.numbers == other.numbers

    def __repr__(self):
        return f"CharClassData(dim={self.dim}, numbers={self.numbers})"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "pontryagin": {
                ",".join(str(p) for p in part): f"{v.numerator}/{v.denominator}"
                for part, v in sorted(self.numbers.items())
            },
        }

    @staticmethod
    def from_json(obj) -> "CharClassData":
        try:
            dim = int(obj["dim"])
            raw = obj.get("pontryagin", {})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError("CharClassData JSON must have dim and pontryagin") from exc
        _check_dim(dim)
        if not isinstance(raw, dict):
            raise ValueError("pontryagin must map partitions to rational numbers")
        numbers = {}
        for key, val in raw.items():
            parts = tuple(int(s) for s in str(key).split(",") if s.strip())
            numbers[parts] = rational_from_string(str(val))
        return CharClassData(dim, numbers)


def _check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"manifold dimension {dim} exceeds the supported maximum {MAX_DIM}")


def point_data() -> CharClassData:
    return CharClassData(0)


def cp_projective_data(n: int) -> CharClassData:
    """Pontryagin data of complex projective n-space (real dimension 2n).

    The total Pontryagin class is (1+x^2)^{n+1} truncated at x^{2n}, so
    p_i = C(n+1, i) x^{2i} and each monomial number is the product of the
    matching binomials.
    """
    if n < 1:
        raise ValueError("projective space index must be >= 1")
    dim = 2 * n
    if n % 2 != 0:
        return CharClassData(dim)
    k = n // 2
    numbers = {}
    for part in partitions(k):
        value = Fraction(1)
        for i in part:
            value *= math.comb(n + 1, i)
        numbers[part] = value
    return CharClassData(dim, numbers)


def _splits(part: tuple, total: int) -> list:
    """Tuples s with 0 <= s_t <= part[t] and sum(s) == total."""
    level = [((), total)]
    room = sum(part)
    for i in part:
        room -= i
        level = [(s + (x,), r - x) for s, r in level
                 for x in range(max(0, r - room), min(i, r) + 1)]
    return [s for s, _ in level]


def product_data(a: CharClassData, b: CharClassData) -> CharClassData:
    """Whitney-product Pontryagin data of a cartesian product.

    p_i(M x N) = sum_r p_r(M) p_{i-r}(N), so the number of p_{i_1} ... p_{i_m}
    sums a-number times b-number over the splits 0 <= a_t <= i_t with
    4 sum(a_t) = dim M: the a side takes the nonzero a_t, the b side the
    nonzero i_t - a_t, each looked up as a descending tuple. The sums run on
    integer numerators over the product of the two common denominators.
    """
    dim = a.dim + b.dim
    if dim % 4 != 0 or a.dim % 4 != 0:
        return CharClassData(dim)
    den_a, ints = integer_numerators(list(a.numbers.values()))
    num_a = dict(zip(a.numbers, ints))
    den_b, ints = integer_numerators(list(b.numbers.values()))
    num_b = dict(zip(b.numbers, ints))
    numbers = {}
    for part in partitions(dim // 4):
        total = 0
        for split in _splits(part, a.dim // 4):
            na = num_a.get(tuple(sorted((x for x in split if x), reverse=True)))
            if na:
                nb = num_b.get(tuple(sorted((i - x for i, x in zip(part, split) if i != x),
                                            reverse=True)))
                if nb:
                    total += na * nb
        if total:
            numbers[part] = Fraction(total, den_a * den_b)
    return CharClassData._raw(dim, numbers)


def genus_evaluate(seq: MultSeq, data: CharClassData) -> Fraction:
    """Pair the degree-(dim/4) K-polynomial with the Pontryagin numbers."""
    if data.dim % 4 != 0:
        return Fraction(0)
    k = data.dim // 4
    if k == 0:
        return data.number(())
    K = seq.k_polynomial(k)
    total = Fraction(0)
    for exp, coeff in K.terms.items():
        part = tuple(sorted(
            (j + 1 for j in range(k) for _ in range(exp[j])), reverse=True))
        n = data.number(part)
        if n:
            total += coeff * n
    return total


# -- manifold spec grammar ------------------------------------------------------------

_FACTOR = _re.compile(r"^(CP\d+)(?:\^(\d+))?$", _re.IGNORECASE)


class ManifoldSpec:
    """Product of projective-space generators: "CP2", "CP2^2 x CP4", ..."""

    __slots__ = ("names",)

    def __init__(self, names):
        names = tuple(sorted(names))
        if not names:
            raise ValueError("empty manifold spec")
        self.names = names

    @staticmethod
    def parse(text: str) -> "ManifoldSpec":
        factors = []
        dim = 0
        for chunk in _re.split(r"\s*x\s*", text.strip(), flags=_re.IGNORECASE):
            m = _FACTOR.match(chunk.strip())
            if not m:
                raise ValueError(f"cannot parse manifold factor {chunk!r}")
            name = m.group(1).upper()
            power = int(m.group(2) or 1)
            if power < 1:
                raise ValueError("manifold power must be positive")
            index = int(name[2:])
            if index < 1:
                raise ValueError("projective space index must be >= 1")
            factors.append((name, power))
            dim += 2 * index * power
        _check_dim(dim)
        return ManifoldSpec([name for name, power in factors for _ in range(power)])

    def char_data(self) -> CharClassData:
        data = point_data()
        for name in self.names:
            data = product_data(data, cp_projective_data(int(name[2:])))
        return data

    def __str__(self):
        counts: dict[str, int] = {}
        for name in self.names:
            counts[name] = counts.get(name, 0) + 1
        chunks = []
        for name in sorted(counts):
            k = counts[name]
            chunks.append(name if k == 1 else f"{name}^{k}")
        return " x ".join(chunks)

    def __eq__(self, other):
        return isinstance(other, ManifoldSpec) and self.names == other.names
