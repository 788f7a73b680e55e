"""Multiplicative sequences, the A-hat genus, and Pontryagin-number arithmetic.

A multiplicative sequence is built from the Taylor coefficients of an even
characteristic power series R(z) (z standing for the square of a formal
root). Its degree-k polynomial in the Pontryagin classes p_1..p_k is kept as
``{descending partition: coefficient}``, the partition (i_1, ..., i_m) for the
monomial p_{i_1} ... p_{i_m}: the form that ``genus_evaluate`` pairs with
Pontryagin numbers. One recurrence builds each degree from the lower ones:
Newton's identities give the power sums of the formal roots, and
exponentiating log R degree by degree gives the K-polynomials, all in exact
rational arithmetic.
"""

from __future__ import annotations

import math
import re as _re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .scalars import (MultiPoly, integer_numerators, quote_input, rational_from_string,
                      rational_to_string)

# Largest manifold dimension that `ManifoldSpec.parse` and `CharClassData.from_json`
# accept, and the range the tests check against oracles. Cost no longer sets it: on a
# 2-vCPU Xeon VM, a cold sequence builds the degree-10 K-polynomial (42 terms) in about
# 15 ms, and CP20's data plus genus take 17 ms. The cost grows with the partitions of
# dim/4: 40 ms at dim 48 (77 terms), 0.15 s at dim 60 (176) and 1.1 s at dim 80 (627).
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


def _add_product(acc: dict, a: dict, b: dict, scale) -> None:
    """acc += scale * a * b on partition-keyed terms: monomials multiply by merging parts."""
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(sorted(pa + pb, reverse=True))
            acc[key] = acc.get(key, 0) + scale * ca * cb


class MultSeq:
    """Multiplicative sequence attached to an even characteristic series.

    ``series(order)`` must yield Taylor coefficients [1, a1, a2, ...] of R(z).
    Terms are ``{descending partition: coefficient}``: the partition
    (i_1, ..., i_m) stands for p_{i_1} ... p_{i_m}. Over formal roots z_j,
    with l_m the coefficients of log R and P_m the power sums of the z_j,
    the total K-polynomial is exp(S) with S = sum_m l_m P_m. Two lists grow
    together, one degree n at a time:

    - Newton: P_n = sum_{i<n} (-1)^{i-1} p_i P_{n-i} + (-1)^{n-1} n p_n, with
      integer coefficients;
    - graded exponential: n K_n = sum_{m<=n} m l_m P_m K_{n-m}.

    Every term has weight n, so nothing is truncated, and each degree is
    built once; a higher degree extends the lists.
    """

    def __init__(self, series, name: str = ""):
        self._series = series
        self.name = name
        self._power_sums: list[dict] = [{}]
        self._terms: list[dict] = [{(): Fraction(1)}]

    def characteristic_coefficients(self, order: int) -> list[Fraction]:
        coeffs = list(map(Fraction, self._series(order)))
        if coeffs[0] != 1:
            raise ValueError("characteristic series must start with 1")
        return coeffs

    def k_polynomial(self, k: int) -> MultiPoly:
        """Degree-k polynomial; variable i is p_{i+1}, its exponent the count of part i+1."""
        if k < 0:
            raise ValueError("negative degree")
        return MultiPoly(k, {tuple(part.count(i + 1) for i in range(k)): c
                             for part, c in self._partition_terms(k).items()})

    def _partition_terms(self, k: int) -> dict:
        """{descending partition: coefficient} of the degree-k polynomial."""
        P, K = self._power_sums, self._terms
        if k >= len(K):
            logc = series_log(self.characteristic_coefficients(k), k)
            for n in range(len(K), k + 1):
                acc = {(n,): (-1) ** (n - 1) * n}
                for i in range(1, n):
                    _add_product(acc, {(i,): 1}, P[n - i], 1 if i % 2 else -1)
                P.append({part: c for part, c in acc.items() if c})
                acc = {}
                for m in range(1, n + 1):
                    if logc[m]:
                        _add_product(acc, P[m], K[n - m], m * logc[m])
                K.append({part: c / n for part, c in acc.items() if c})
        return K[k]


@lru_cache(maxsize=None)
def ahat_sequence() -> MultSeq:
    return MultSeq(ahat_series, name="A-hat")


def ahat_polynomial(k: int) -> MultiPoly:
    """Degree-k A-hat polynomial in p_1..p_k (supported range 1 <= k <= 4)."""
    if not 1 <= k <= 4:
        raise ValueError("degree out of supported range 1..4")
    return ahat_sequence().k_polynomial(k)


# -- Pontryagin data ------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k as descending tuples, computed once per k."""
    def rec(remaining, largest):
        if remaining == 0:
            return [()]
        return [(first,) + rest for first in range(min(remaining, largest), 0, -1)
                for rest in rec(remaining - first, first)]
    return tuple(rec(k, k))


def _key(part: tuple) -> str:
    """The JSON key of a partition: its parts joined by commas."""
    return ",".join(map(str, part))


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
        given, dim = dim, int(dim)
        if isinstance(given, bool) or (not isinstance(given, str) and given != dim):
            raise ValueError(f"dim must be an integer, not {given!r}")
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
                if part in clean:
                    raise ValueError(f"partition {_key(part)} is given twice")
                clean[part] = Fraction(val)
            clean = {part: val for part, val in clean.items() if val}
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
                _key(part): rational_to_string(v) for part, v in sorted(self.numbers.items())
            },
        }

    @staticmethod
    def from_json(obj) -> "CharClassData":
        try:
            given = obj["dim"]
            raw = obj.get("pontryagin", {})
            dim = int(given)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError("CharClassData JSON must have dim and pontryagin") from exc
        _check_dim(dim)
        if not isinstance(raw, dict):
            raise ValueError("pontryagin must map partitions to rational numbers")
        numbers = {}
        for key, val in raw.items():
            part = _normalize_partition(s for s in str(key).split(",") if s.strip())
            if part in numbers:
                raise ValueError(f"partition {_key(part)} is given twice")
            numbers[part] = rational_from_string(str(val))
        return CharClassData(given, numbers)


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


@lru_cache(maxsize=None)
def _split_table(k: int, ka: int) -> tuple:
    """Per partition of k, each distinct (a-part, b-part) of its splits of a-weight ka, counted."""
    table = []
    for part in partitions(k):
        level = [((), ka)]
        room = k
        for i in part:
            room -= i
            level = [(s + (x,), r - x) for s, r in level
                     for x in range(max(0, r - room), min(i, r) + 1)]
        table.append((part, tuple(Counter(
            (tuple(sorted((x for x in s if x), reverse=True)),
             tuple(sorted((i - x for i, x in zip(part, s) if i != x), reverse=True)))
            for s, _ in level).items())))
    return tuple(table)


def product_data(a: CharClassData, b: CharClassData) -> CharClassData:
    """Whitney-product Pontryagin data of a cartesian product.

    p_i(M x N) = sum_r p_r(M) p_{i-r}(N), so the number of p_{i_1} ... p_{i_m}
    sums a-number times b-number over the splits 0 <= a_t <= i_t with
    4 sum(a_t) = dim M: the a side takes the nonzero a_t, the b side the
    nonzero i_t - a_t, each a descending tuple. Each distinct pair is looked
    up once, times the number of splits giving it (``_split_table``, built once
    per pair of degrees). The sums run on integer numerators over the product
    of the two common denominators.
    """
    dim = a.dim + b.dim
    if dim % 4 != 0 or a.dim % 4 != 0:
        return CharClassData(dim)
    den_a, ints = integer_numerators(list(a.numbers.values()))
    num_a = dict(zip(a.numbers, ints))
    den_b, ints = integer_numerators(list(b.numbers.values()))
    num_b = dict(zip(b.numbers, ints))
    numbers = {}
    for part, pairs in _split_table(dim // 4, a.dim // 4):
        total = sum(count * num_a.get(pa, 0) * num_b.get(pb, 0) for (pa, pb), count in pairs)
        if total:
            numbers[part] = Fraction(total, den_a * den_b)
    return CharClassData._raw(dim, numbers)


def genus_evaluate(seq: MultSeq, data: CharClassData) -> Fraction:
    """Pair the partition-keyed terms of the degree-(dim/4) K-polynomial with
    the Pontryagin numbers."""
    if data.dim % 4 != 0:
        return Fraction(0)
    total = Fraction(0)
    for part, coeff in seq._partition_terms(data.dim // 4).items():
        n = data.numbers.get(part)
        if n:
            total += coeff * n
    return total


# -- manifold spec grammar ------------------------------------------------------------

_FACTOR = _re.compile(r"^(CP\d+)(?:\^(\d+))?$", _re.IGNORECASE | _re.ASCII)


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
                raise ValueError(f"cannot parse manifold factor {quote_input(chunk)}")
            index, power = m.group(1)[2:].lstrip("0"), (m.group(2) or "1").lstrip("0")
            if not power:
                raise ValueError("manifold power must be positive")
            if not index:
                raise ValueError("projective space index must be >= 1")
            # 2 * index * power is at least each number, so one with more digits than
            # MAX_DIM is over it; such digits never reach int(), whatever their count
            if max(len(index), len(power)) > len(str(MAX_DIM)):
                raise ValueError(f"manifold factor {quote_input(chunk.strip())} exceeds "
                                 f"the supported maximum dimension {MAX_DIM}")
            factors.append((f"CP{int(index)}", int(power)))  # CP02 is CP2
            dim += 2 * int(index) * int(power)
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
