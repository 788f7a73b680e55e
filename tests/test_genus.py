import math
from fractions import Fraction

import pytest

from c2alg.genus import (CharClassData, ManifoldSpec, ahat_polynomial,
                         ahat_sequence, ahat_series, cp_projective_data,
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
