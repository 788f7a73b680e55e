import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from c2alg.genus import (MAX_DIM, CharClassData, ManifoldSpec, MultSeq, _split_table,
                         ahat_polynomial, ahat_sequence, ahat_series, cp_projective_data,
                         genus_evaluate, partitions, point_data, product_data,
                         series_inv, series_log)
from c2alg.scalars import MultiPoly
from c2alg.verify import _rng


# -- independent oracle: explicit formal roots and symmetrization ---------------------
#
# Expands prod_j R(z_j) over k formal roots, takes the degree-k part, and
# rewrites it in elementary symmetric polynomials by repeatedly subtracting
# the lex-leading elementary monomial. Shares no code with the Newton-identity
# construction in the genus module.


def _elementary_symmetric(nvars: int, i: int) -> MultiPoly:
    terms = {}

    def rec(start, chosen):
        if len(chosen) == i:
            exp = [0] * nvars
            for c in chosen:
                exp[c] = 1
            terms[tuple(exp)] = Fraction(1)
            return
        for nxt in range(start, nvars):
            rec(nxt + 1, chosen + [nxt])

    rec(0, [])
    return MultiPoly(nvars, terms)


def symmetrization_oracle(series, k: int) -> MultiPoly:
    coeffs = list(series(k))
    nv = k
    prod = MultiPoly.one(nv)
    for j in range(k):
        factor = MultiPoly(nv, {
            tuple(d if idx == j else 0 for idx in range(nv)): c
            for d, c in enumerate(coeffs[:k + 1]) if c
        })
        prod = prod * factor
        prod = MultiPoly(nv, {e: c for e, c in prod.terms.items() if sum(e) <= k})
    sym = MultiPoly(nv, {e: c for e, c in prod.terms.items() if sum(e) == k})

    e_polys = [None] + [_elementary_symmetric(nv, i) for i in range(1, k + 1)]
    out = MultiPoly.zero(k)
    while not sym.is_zero():
        lead = max(sym.terms)  # lex-leading exponent is weakly decreasing
        coeff = sym.terms[lead]
        lam = list(lead) + [0]
        e_product = MultiPoly.one(nv)
        p_monomial = [0] * k
        for i in range(1, k + 1):
            mult = lam[i - 1] - lam[i]
            if mult:
                e_product = e_product * (e_polys[i] ** mult)
                p_monomial[i - 1] = mult
        sym = sym - e_product * coeff
        out = out + MultiPoly(k, {tuple(p_monomial): coeff})
    return out


# -- oracle for the graded-exponential recurrence: Newton's identities and a truncated
# exp(S) over k-variable MultiPoly products, built from scratch per degree ------------


def _weighted_degree(exp: tuple) -> int:
    return sum((i + 1) * e for i, e in enumerate(exp))


def _truncate_weighted(poly: MultiPoly, bound: int) -> MultiPoly:
    return MultiPoly(poly.nvars,
                     {e: c for e, c in poly.terms.items() if _weighted_degree(e) <= bound})


def newton_exp_oracle(series, k: int) -> MultiPoly:
    """Degree-k K-polynomial as exp(sum_m l_m P_m), truncated to weighted degree k."""
    if k == 0:
        return MultiPoly.one(0)
    logc = series_log(list(series(k)), k)
    e = [None] + [MultiPoly.variable(k, i) for i in range(k)]
    P = [None] * (k + 1)
    for m in range(1, k + 1):
        acc = e[m] * Fraction((-1) ** (m - 1) * m)
        for i in range(1, m):
            term = e[i] * P[m - i]
            acc = acc + (term if i % 2 else -term)
        P[m] = acc
    S = MultiPoly.zero(k)
    for m in range(1, k + 1):
        if logc[m]:
            S = S + P[m] * logc[m]
    total = MultiPoly.one(k)
    term = MultiPoly.one(k)
    for j in range(1, k + 1):
        term = _truncate_weighted(term * S, k) * Fraction(1, j)
        total = total + term
    return MultiPoly(k, {e: c for e, c in total.terms.items() if _weighted_degree(e) == k})


class TestSeriesHelpers:
    def test_inv_and_mul(self):
        a = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
        inv = series_inv(a, 4)
        assert inv == [1, Fraction(-1, 2), Fraction(-1, 12), Fraction(5, 24), Fraction(-11, 144)]
        product = [sum(a[k] * inv[m - k] for k in range(min(m, 2) + 1)) for m in range(5)]
        assert product == [1, 0, 0, 0, 0]

    def test_log_of_exp_series(self):
        # exp(t) coefficients 1/n!
        e = [Fraction(1, math.factorial(n)) for n in range(6)]
        lg = series_log(e, 5)
        assert lg == [Fraction(0), Fraction(1)] + [Fraction(0)] * 4

    def test_ahat_series_values(self):
        coeffs = ahat_series(3)
        assert coeffs[0] == 1
        assert coeffs[1] == Fraction(-1, 24)
        assert coeffs[2] == Fraction(7, 5760)
        assert coeffs[3] == Fraction(-31, 967680)


class TestAhatPolynomials:
    def test_degree_one_matches_oracle(self):
        assert ahat_polynomial(1) == symmetrization_oracle(ahat_series, 1)
        assert ahat_polynomial(1) == MultiPoly(1, {(1,): Fraction(-1, 24)})

    def test_degree_two_matches_oracle(self):
        assert ahat_polynomial(2) == symmetrization_oracle(ahat_series, 2)
        assert ahat_polynomial(2) == MultiPoly(
            2, {(2, 0): Fraction(7, 5760), (0, 1): Fraction(-4, 5760)})

    def test_degree_three_matches_oracle(self):
        assert ahat_polynomial(3) == symmetrization_oracle(ahat_series, 3)

    def test_degree_four_matches_oracle(self):
        assert ahat_polynomial(4) == symmetrization_oracle(ahat_series, 4)

    def test_out_of_range_rejected(self):
        for k in (0, 5, -1):
            with pytest.raises(ValueError):
                ahat_polynomial(k)

    def test_multiplicativity_degree_by_degree(self):
        # K_n of a Whitney product equals sum K_i (x) K_j, checked formally
        seq = ahat_sequence()
        for n in (1, 2, 3):
            nv = 2 * n
            p = [None] + [MultiPoly.variable(nv, i) for i in range(n)]
            pp = [None] + [MultiPoly.variable(nv, n + i) for i in range(n)]
            whitney = [None] * (n + 1)
            for k in range(1, n + 1):
                acc = MultiPoly.zero(nv)
                for r in range(k + 1):
                    left = p[r] if r else MultiPoly.one(nv)
                    right = pp[k - r] if k - r else MultiPoly.one(nv)
                    acc = acc + left * right
                whitney[k] = acc
            lhs = seq.k_polynomial(n).substitute(whitney[1:])
            rhs = MultiPoly.zero(nv)
            for i in range(n + 1):
                j = n - i
                left = (seq.k_polynomial(i).substitute(p[1:i + 1])
                        if i else MultiPoly.one(nv))
                right = (seq.k_polynomial(j).substitute(pp[1:j + 1])
                         if j else MultiPoly.one(nv))
                rhs = rhs + left * right
            assert lhs == rhs


class TestRecurrence:
    def test_matches_the_newton_exp_oracle_up_to_degree_ten(self):
        seq = ahat_sequence()
        for k in range(MAX_DIM // 4 + 1):
            assert seq.k_polynomial(k) == newton_exp_oracle(ahat_series, k), k

    def test_projective_basis_pins_every_coefficient(self):
        # products of CP^{2 lambda_i} over the partitions lambda of k span the degree-k
        # Pontryagin data, and A-hat(CP^{2j}) = (-1)^j C(2j, j) / 2^{4j}
        seq = ahat_sequence()
        for k in range(MAX_DIM // 4 + 1):
            for lam in partitions(k):
                data, expected = point_data(), Fraction(1)
                for j in lam:
                    data = product_data(data, cp_projective_data(2 * j))
                    expected *= Fraction((-1) ** j * math.comb(2 * j, j), 2 ** (4 * j))
                assert genus_evaluate(seq, data) == expected, lam

    def test_linear_series_gives_the_top_class(self):
        # R(z) = 1 + z: the total K-polynomial is prod (1 + z_j), so K_k = p_k
        seq = MultSeq(lambda order: (Fraction(1), Fraction(1)))
        for k in range(1, MAX_DIM // 4 + 1):
            assert seq._partition_terms(k) == {(k,): 1}
            assert seq.k_polynomial(k) == MultiPoly.variable(k, k - 1)

    def test_build_order_does_not_matter(self):
        high_first, low_first = MultSeq(ahat_series), MultSeq(ahat_series)
        high_first._partition_terms(10)
        low_first._partition_terms(3)
        for k in range(11):
            assert high_first._partition_terms(k) == low_first._partition_terms(k), k

    def test_degree_zero_is_the_unit(self):
        assert ahat_sequence().k_polynomial(0) == MultiPoly.one(0)
        with pytest.raises(ValueError):
            ahat_sequence().k_polynomial(-1)


class TestProjectiveData:
    def test_cp2(self):
        data = cp_projective_data(2)
        assert data.dim == 4
        assert data.number((1,)) == 3

    def test_cp1_has_no_degree_four_classes(self):
        data = cp_projective_data(1)
        assert data.dim == 2 and not data.numbers
        assert genus_evaluate(ahat_sequence(), data) == 0

    def test_cp4(self):
        data = cp_projective_data(4)
        assert data.dim == 8
        assert data.number((1, 1)) == 25
        assert data.number((2,)) == 10

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cp_projective_data(0)


# -- independent oracle: Whitney product as a polynomial in 2k variables --------------
#
# Expands prod_t p_{i_t}(M x N) with p_i(M x N) = sum_r p_r(M) p_{i-r}(N) as a
# MultiPoly in p_1(M)..p_k(M), p_1(N)..p_k(N), then decodes each exponent into
# one partition per side. Shares no code with the split enumeration in the
# genus module.


def product_data_fraction_formula(a: CharClassData, b: CharClassData) -> CharClassData:
    """The Whitney-sum formula of ``product_data`` on Fractions, through ``number``."""
    dim = a.dim + b.dim
    if dim % 4 != 0:
        return CharClassData(dim)
    numbers = {}
    for part in partitions(dim // 4):
        total = Fraction(0)
        for split in itertools.product(*(range(i + 1) for i in part)):
            if 4 * sum(split) != a.dim:
                continue
            na = a.number([x for x in split if x])
            if na:
                total += na * b.number([i - x for i, x in zip(part, split) if i != x])
        if total:
            numbers[part] = total
    return CharClassData(dim, numbers)


def product_data_oracle(a: CharClassData, b: CharClassData) -> CharClassData:
    dim = a.dim + b.dim
    if dim % 4 != 0:
        return CharClassData(dim)
    k = dim // 4
    nv = 2 * k

    def pvar(side: int, i: int) -> MultiPoly:
        if i == 0:
            return MultiPoly.one(nv)
        return MultiPoly.variable(nv, (i - 1) if side == 0 else (k + i - 1))

    cross = [None] + [
        sum((pvar(0, r) * pvar(1, i - r) for r in range(i + 1)), MultiPoly.zero(nv))
        for i in range(1, k + 1)]
    numbers = {}
    for part in partitions(k):
        poly = MultiPoly.one(nv)
        for i in part:
            poly = poly * cross[i]
        total = Fraction(0)
        for exp, coeff in poly.terms.items():
            if 4 * sum((j + 1) * exp[j] for j in range(k)) != a.dim:
                continue
            part_a = [j + 1 for j in range(k) for _ in range(exp[j])]
            part_b = [j + 1 for j in range(k) for _ in range(exp[k + j])]
            total += coeff * a.number(part_a) * b.number(part_b)
        if total:
            numbers[part] = total
    return CharClassData(dim, numbers)


# -- oracles for the per-degree tables: the per-split enumeration they replaced ---------


def splits_oracle(part: tuple, total: int) -> list:
    """Tuples s with 0 <= s_t <= part[t] and sum(s) == total, one per split."""
    level = [((), total)]
    room = sum(part)
    for i in part:
        room -= i
        level = [(s + (x,), r - x) for s, r in level
                 for x in range(max(0, r - room), min(i, r) + 1)]
    return [s for s, _ in level]


def split_pair(part: tuple, split: tuple) -> tuple:
    """The (a-part, b-part) a split looks up, each sorted descending."""
    return (tuple(sorted((x for x in split if x), reverse=True)),
            tuple(sorted((i - x for i, x in zip(part, split) if i != x), reverse=True)))


def product_data_split_oracle(a: CharClassData, b: CharClassData) -> CharClassData:
    """Whitney product with one lookup per split, both tuples sorted on every split."""
    dim = a.dim + b.dim
    if dim % 4 != 0 or a.dim % 4 != 0:
        return CharClassData(dim)
    numbers = {}
    for part in partitions(dim // 4):
        total = Fraction(0)
        for split in splits_oracle(part, a.dim // 4):
            part_a, part_b = split_pair(part, split)
            total += a.numbers.get(part_a, 0) * b.numbers.get(part_b, 0)
        if total:
            numbers[part] = total
    return CharClassData(dim, numbers)


def genus_evaluate_sorted_oracle(seq, data: CharClassData) -> Fraction:
    """Genus with each K-polynomial exponent sorted into a partition on every call."""
    if data.dim % 4 != 0:
        return Fraction(0)
    k = data.dim // 4
    if k == 0:
        return data.number(())
    total = Fraction(0)
    for exp, coeff in seq.k_polynomial(k).terms.items():
        part = tuple(sorted((j + 1 for j in range(k) for _ in range(exp[j])), reverse=True))
        total += coeff * data.number(part)
    return total


class TestSplitTable:
    def test_matches_the_split_enumeration(self):
        # every partition of k <= MAX_DIM / 4 and every a-side weight
        for k in range(MAX_DIM // 4 + 1):
            for ka in range(k + 1):
                table = _split_table(k, ka)
                assert [part for part, _ in table] == list(partitions(k))
                for part, pairs in table:
                    expected = Counter(split_pair(part, s) for s in splits_oracle(part, ka))
                    assert len(dict(pairs)) == len(pairs)  # each distinct pair once
                    assert dict(pairs) == expected, (k, ka, part)

    def test_one_lookup_per_distinct_pair(self):
        # CP4^2 x CP4: a-weight 4 in degree 6
        assert sum(len(splits_oracle(part, 4)) for part in partitions(6)) == 65
        assert sum(len(pairs) for _, pairs in _split_table(6, 4)) == 29

    def test_tables_are_built_once_per_degree(self):
        assert partitions(7) is partitions(7)
        assert isinstance(partitions(7), tuple)
        assert _split_table(7, 3) is _split_table(7, 3)
        seq = ahat_sequence()
        assert seq._partition_terms(3) is seq._partition_terms(3)

    def test_products_up_to_max_dim_match_the_oracles(self):
        # chains of projective spaces and of rational JSON factors up to MAX_DIM: every
        # intermediate product and genus is compared with the per-split oracles
        rng = _rng(2, "split-table")
        seq = ahat_sequence()
        chains = [[cp_projective_data(2)] * 10, [cp_projective_data(4)] * 5,
                  [cp_projective_data(2)] * 6 + [cp_projective_data(4)] * 2]
        for _ in range(8):
            chain, dim = [], 0
            while True:
                factor_dim = rng.choice((4, 8, 12))
                if dim + factor_dim > MAX_DIM:
                    break
                pontryagin = {",".join(map(str, part)): f"{rng.randint(-9, 9)}/{rng.randint(1, 7)}"
                              for part in partitions(factor_dim // 4) if rng.random() < 0.8}
                chain.append(CharClassData.from_json({"dim": factor_dim,
                                                      "pontryagin": pontryagin}))
                dim += factor_dim
            chains.append(chain)
        for chain in chains:
            data = point_data()
            for factor in chain:
                expected = product_data_split_oracle(data, factor)
                data = product_data(data, factor)
                assert data == expected
                assert genus_evaluate(seq, data) == genus_evaluate_sorted_oracle(seq, data)
        cp2, cp4 = (genus_evaluate(seq, cp_projective_data(n)) for n in (2, 4))
        for spec, value in (("CP2^10", Fraction(1, 1073741824)),
                            ("CP4^5", Fraction(243, 34359738368)),
                            ("CP2^6 x CP4^2", cp2 ** 6 * cp4 ** 2)):
            assert genus_evaluate(seq, ManifoldSpec.parse(spec).char_data()) == value


class TestProductData:
    def test_point_is_unit(self):
        b = cp_projective_data(2)
        assert product_data(point_data(), b) == b
        assert product_data(CharClassData(0), b) == b

    def test_cp2_squared(self):
        sq = product_data(cp_projective_data(2), cp_projective_data(2))
        assert sq.dim == 8
        assert sq.number((1, 1)) == 18
        assert sq.number((2,)) == 9

    def test_commutative(self):
        a = cp_projective_data(2)
        b = cp_projective_data(4)
        assert product_data(a, b) == product_data(b, a)

    def test_matches_polynomial_oracle_on_chained_products(self):
        # random chains of CP1..CP8 up to MAX_DIM; every intermediate product is compared.
        # A factor CP(odd) zeroes every later number, so most chains use even factors only.
        rng = _rng(0, "product-data-oracle")
        for chain in range(30):
            indices = range(1, 9) if chain % 3 == 0 else (2, 4, 6, 8)
            data = point_data()
            while True:
                n = rng.choice(indices)
                if data.dim + 2 * n > MAX_DIM:
                    break
                cp = cp_projective_data(n)
                expected = product_data_oracle(data, cp)
                data = product_data(data, cp)
                assert data == expected

    def test_rational_numbers_match_both_oracles(self):
        # JSON data with rational Pontryagin numbers, some missing, in every
        # pairing of dimensions 0..12 (2 and 6 carry no numbers)
        rng = _rng(1, "product-data-rational")
        samples = [CharClassData.from_json({"dim": 4, "pontryagin": {"1": "1/3"}})]
        for dim in (0, 2, 4, 6, 8, 12):
            for _ in range(2):
                pontryagin = {
                    ",".join(map(str, part)): f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}"
                    for part in (partitions(dim // 4) if dim % 4 == 0 else ())
                    if rng.random() < 0.8}
                samples.append(CharClassData.from_json({"dim": dim, "pontryagin": pontryagin}))
        for a in samples:
            for b in samples:
                got = product_data(a, b)
                assert got == product_data_fraction_formula(a, b) == product_data_oracle(a, b)

    def test_odd_pontryagin_dimension_vanishes(self):
        s2 = cp_projective_data(1)
        prod = product_data(s2, s2)
        assert prod.dim == 4 and not prod.numbers


class TestGenusEvaluate:
    def test_cp2_value(self):
        assert genus_evaluate(ahat_sequence(), cp_projective_data(2)) == Fraction(-1, 8)

    def test_square_value_both_routes(self):
        seq = ahat_sequence()
        gamma = cp_projective_data(2)
        direct = genus_evaluate(seq, product_data(gamma, gamma))
        multiplicative = genus_evaluate(seq, gamma) ** 2
        assert direct == Fraction(1, 64)
        assert direct == multiplicative

    def test_degree_two_evaluation_route(self):
        # evaluate the degree-2 polynomial on p1^2 = 18, p2 = 9 by hand
        K2 = ahat_polynomial(2)
        value = (K2.coeff((2, 0)) * 18 + K2.coeff((0, 1)) * 9)
        assert value == Fraction(90, 5760) == Fraction(1, 64)

    def test_point(self):
        assert genus_evaluate(ahat_sequence(), point_data()) == 1

    def test_multiplicativity_random_products(self):
        rng = _rng(31, "genus")
        seq = ahat_sequence()
        pool = [cp_projective_data(2), cp_projective_data(4)]
        for _ in range(25):
            def build():
                data = point_data()
                for _ in range(rng.randint(0, 2)):
                    data = product_data(data, pool[rng.randrange(2)])
                return data

            a, b = build(), build()
            if a.dim + b.dim > 16:
                continue
            assert (genus_evaluate(seq, product_data(a, b))
                    == genus_evaluate(seq, a) * genus_evaluate(seq, b))

    def test_non_integer_witness(self):
        value = genus_evaluate(ahat_sequence(), cp_projective_data(2))
        assert value.denominator != 1

    def test_closed_form_for_even_projective_spaces(self):
        # classical value (-1)^k C(2k,k) / 2^{4k}: an independent route through
        # the full supported degree range
        seq = ahat_sequence()
        for k in (1, 2, 3, 4):
            computed = genus_evaluate(seq, cp_projective_data(2 * k))
            assert computed == Fraction((-1) ** k * math.comb(2 * k, k), 2 ** (4 * k))

    def test_degree_four_cross_route(self):
        seq = ahat_sequence()
        cp2 = cp_projective_data(2)
        cp6 = cp_projective_data(6)
        assert genus_evaluate(seq, product_data(cp2, cp6)) == Fraction(5, 8192)
        quad = product_data(product_data(cp2, cp2), product_data(cp2, cp2))
        assert genus_evaluate(seq, quad) == Fraction(1, 4096)


class TestCharClassData:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            CharClassData(8, {(1,): 1})
        with pytest.raises(ValueError):
            CharClassData(6, {(1,): 1})

    def test_json_round_trip(self):
        data = CharClassData(8, {(1, 1): Fraction(18), (2,): Fraction(9)})
        obj = data.to_json()
        assert obj["pontryagin"]["1,1"] == "18/1"
        assert CharClassData.from_json(obj) == data

    def test_repeated_partition_refused(self):
        # (2, 1) and (1, 2) name the same monomial p_2 p_1
        with pytest.raises(ValueError, match="partition 2,1 is given twice"):
            CharClassData(12, {(2, 1): 3, (1, 2): 5})
        with pytest.raises(ValueError, match="partition 1 is given twice"):
            CharClassData.from_json({"dim": 4, "pontryagin": {"1": "3", "01": "2"}})
        with pytest.raises(ValueError, match="partition 1,1 is given twice"):
            CharClassData.from_json({"dim": 8, "pontryagin": {"1,1": "0", "1, 1": "5"}})

    def test_dim_must_be_integral(self):
        expected = CharClassData(8, {(1, 1): 3})
        for dim in (8, 8.0, "8"):
            assert CharClassData.from_json({"dim": dim, "pontryagin": {"1,1": "3"}}) == expected
        for dim in (4.7, True, False):
            with pytest.raises(ValueError, match="dim must be an integer"):
                CharClassData.from_json({"dim": dim, "pontryagin": {}})

    def test_constructor_refuses_non_integral_dim(self):
        # int() would truncate 4.7 to a dim-4 class and read True as dim 1
        with pytest.raises(ValueError, match=r"^dim must be an integer, not 4\.7$"):
            CharClassData(4.7, {(1,): 3})
        for dim in (True, False, Fraction(9, 2)):
            with pytest.raises(ValueError, match="dim must be an integer"):
                CharClassData(dim)
        assert CharClassData(8.0, {(1, 1): 3}) == CharClassData(8, {(1, 1): 3})
        assert CharClassData(8.0).dim == 8 and type(CharClassData(8.0).dim) is int

    def test_missing_entries_are_zero(self):
        data = CharClassData(8, {(2,): 5})
        assert data.number((1, 1)) == 0


class TestPartitions:
    def test_small_counts(self):
        assert len(list(partitions(4))) == 5
        assert list(partitions(0)) == [()]


class TestManifoldSpec:
    def test_parse_and_print(self):
        spec = ManifoldSpec.parse("CP2 x CP2")
        assert str(spec) == "CP2^2"
        assert ManifoldSpec.parse(str(spec)) == spec

    def test_powers_and_case(self):
        spec = ManifoldSpec.parse("cp2^2 X cp4")
        assert str(spec) == "CP2^2 x CP4"
        assert spec.char_data().dim == 16

    def test_char_data_matches_products(self):
        spec = ManifoldSpec.parse("CP2 x CP2")
        direct = product_data(cp_projective_data(2), cp_projective_data(2))
        assert spec.char_data() == direct

    def test_malformed_rejected(self):
        for bad in ("", "CP", "CP2 y CP2", "CP2^", "CP2^0"):
            with pytest.raises(ValueError):
                ManifoldSpec.parse(bad)
