from fractions import Fraction

import pytest

from c2alg.clifford import ccl, kasparov, vector_norm_sq
from c2alg.funcalc import (GradedRatFunc, alpha_conjugation_check,
                           comultiplication, delta_a_triple, delta_b_triple,
                           expand_slot, fc_equivariance, fc_eval, s_generators)
from c2alg.pin_spin import PinElement
from c2alg.scalars import MultiPoly, RatFunc
from c2alg.verify import (_rng, rand_fraction, rand_multivector, rand_pin, rand_real_vector,
                          rational_unit_vector)


def one_plus_tsq(nvars):
    poly = MultiPoly.one(nvars)
    for i in range(nvars):
        poly = poly + MultiPoly.variable(nvars, i) ** 2
    return poly


class TestGenerators:
    def test_b_squared_is_a_minus_a_squared(self):
        a, b = s_generators()
        prod = b * b
        assert prod == a - a * a
        # and the scalar part is the explicit rational function t^2/(1+t^2)^2
        t = MultiPoly.variable(1, 0)
        den = one_plus_tsq(1)
        assert prod.coeff(0) == RatFunc(t * t, den * den)

    def test_odd_generators_anticommute_and_slot_cap(self):
        one = RatFunc.from_const(1, 1)
        eps = [GradedRatFunc(1, 3, {1 << i: one}) for i in range(3)]
        for i in range(3):
            assert eps[i] * eps[i] == GradedRatFunc.scalar(1, 3, one)
            for j in range(i + 1, 3):
                assert eps[i] * eps[j] == -(eps[j] * eps[i])
        with pytest.raises(ValueError):
            GradedRatFunc(1, 17)

    def test_a_central(self):
        a, b = s_generators()
        assert a * b == b * a

    def test_self_adjoint(self):
        a, b = s_generators()
        assert a.is_self_adjoint() and b.is_self_adjoint()

    def test_parity(self):
        a, b = s_generators()
        assert a.parity() == 0 and b.parity() == 1


class TestComultiplication:
    def test_formulas(self):
        den = one_plus_tsq(2)
        da = comultiplication("a")
        db = comultiplication("b")
        assert da.coeff(0) == RatFunc(MultiPoly.one(2), den)
        assert db.coeff(1) == RatFunc(MultiPoly.variable(2, 0), den)
        assert db.coeff(2) == RatFunc(MultiPoly.variable(2, 1), den)

    def test_repr(self):
        # blades go by mask, each coefficient in parentheses; the empty sum is "0"
        a, b = s_generators()
        assert repr(a) == "((1)/(1 + x0^2))"
        assert repr(b) == "((x0)/(1 + x0^2))*eps1"
        db = comultiplication("b")
        assert repr(db) == "((x0)/(1 + x1^2 + x0^2))*eps1 + ((x1)/(1 + x1^2 + x0^2))*eps2"
        den = "(1 + x2^2 + x1^2 + x0^2)"
        assert repr(expand_slot(db, 0)) == (f"((x0)/{den})*eps1 + ((x1)/{den})*eps2"
                                            f" + ((x2)/{den})*eps3")
        assert repr(GradedRatFunc(1, 2)) == "0"

    def test_scalar_readoff(self):
        db = comultiplication("b")
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert db.odd_readoff() == RatFunc(x + y, one_plus_tsq(2))

    def test_delta_b_squared(self):
        da = comultiplication("a")
        db = comultiplication("b")
        sq = db * db
        assert sq == da - da * da
        den = one_plus_tsq(2)
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert sq.coeff(0) == RatFunc(x * x + y * y, den * den)

    def test_cross_term_exactly_zero(self):
        sq = comultiplication("b") * comultiplication("b")
        assert sq.coeff(0b11).is_zero()

    def test_cocommutative(self):
        da = comultiplication("a")
        db = comultiplication("b")
        assert da.swap_slots(0, 1) == da
        assert db.swap_slots(0, 1) == db

    def test_coassociative(self):
        db = comultiplication("b")
        assert expand_slot(db, 0) == delta_b_triple()
        assert expand_slot(db, 1) == delta_b_triple()
        da = comultiplication("a")
        assert expand_slot(da, 0) == delta_a_triple()
        assert expand_slot(da, 1) == delta_a_triple()

    def test_invalid_tag(self):
        with pytest.raises(ValueError):
            comultiplication("c")

    def test_expand_slot_rejects_wrong_parity(self):
        t = MultiPoly.variable(1, 0)
        odd_scalar = GradedRatFunc(1, 1, {0: RatFunc(t)})
        with pytest.raises(ValueError):
            expand_slot(odd_scalar, 0)
        even_odd_part = GradedRatFunc(1, 1, {1: RatFunc(MultiPoly.one(1))})
        with pytest.raises(ValueError):
            expand_slot(even_odd_part, 0)

    def test_expand_slot_range_checked(self):
        a, _ = s_generators()
        with pytest.raises(ValueError):
            expand_slot(a, 1)

    def test_commutative_model_would_fail(self):
        # the anticommuting-generator bookkeeping is essential: the naive
        # scalar form (x+y)/(1+x^2+y^2) squared differs from Delta(a)-Delta(a)^2
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        den = one_plus_tsq(2)
        naive = RatFunc(x + y, den)
        a_form = RatFunc(MultiPoly.one(2), den)
        assert naive * naive != a_form - a_form * a_form


class TestGradedModel:
    def test_anticommuting_generators(self):
        one = RatFunc.one(2)
        eps1 = GradedRatFunc(2, 2, {0b01: one})
        eps2 = GradedRatFunc(2, 2, {0b10: one})
        assert eps1 * eps2 == -(eps2 * eps1)
        assert eps1 * eps1 == GradedRatFunc(2, 2, {0: one})

    def test_swap_sign_on_two_generator_blade(self):
        one = RatFunc.one(2)
        blade = GradedRatFunc(2, 2, {0b11: one})
        assert blade.swap_slots(0, 1) == -blade


class TestFunctionalCalculus:
    def test_zero_vector(self):
        alg = ccl(2, 0)
        image = fc_eval(alg.zero())
        assert image.a_img == alg.scalar(1)
        assert image.b_img == alg.zero()
        assert image.check_relations()

    def test_unit_generator(self):
        alg = ccl(1, 0)
        v = alg.generator(1)
        image = fc_eval(v)
        assert image.a_img == alg.scalar(Fraction(1, 2))
        assert image.b_img == v.scale(Fraction(1, 2))
        # (v/2)^2 = 1/4 = 1/2 - 1/4
        assert image.b_img * image.b_img == alg.scalar(Fraction(1, 4))
        assert image.check_relations()

    def test_norm_25_vector(self):
        alg = ccl(1, 1)
        v = alg.vector([3, 4])
        image = fc_eval(v)
        assert image.a_img == alg.scalar(Fraction(1, 26))
        assert image.b_img == v.scale(Fraction(1, 26))
        assert image.b_img * image.b_img == alg.scalar(Fraction(25, 676))
        assert Fraction(25, 676) == Fraction(1, 26) - Fraction(1, 676)
        assert image.check_relations()

    def test_non_vector_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            fc_eval(alg.generator(1) * alg.generator(2))

    def test_negative_square_vector_rejected(self):
        # e2^2 = -1 in C_(1,1): 1/(1+|v|^2) would not satisfy b^2 = a - a^2
        with pytest.raises(ValueError, match="squares to -1"):
            fc_eval(kasparov(1, 1).vector([0, 1]))

    def test_equivariance_trivial_part(self):
        alg = ccl(2, 0)
        assert fc_equivariance(alg.vector([1, 2]))

    def test_equivariance_sign_generator(self):
        alg = ccl(0, 1)
        w1 = alg.generator(1)
        image = fc_eval(w1)
        conj_image = fc_eval(w1.bar())
        assert conj_image.b_img == -w1.scale(Fraction(1, 2))
        assert conj_image.b_img == image.b_img.bar()
        assert fc_equivariance(w1)

    def test_equivariance_random(self):
        rng = _rng(51, "fc")
        for _ in range(60):
            p = rng.randint(0, 4)
            q = rng.randint(0, 4 - p)
            if p + q == 0:
                p = 1
            v = rand_real_vector(rng, ccl(p, q))
            assert fc_equivariance(v)
            assert fc_eval(v).check_relations()

    def test_equivariance_reuses_a_given_image(self):
        # the suite passes the image it has just built; a given image is used, not rebuilt
        alg = ccl(0, 1)
        w1 = alg.generator(1)
        assert fc_equivariance(w1, fc_eval(w1))
        assert not fc_equivariance(w1, fc_eval(w1.scale(2)))


def fc_eval_fraction_formula(v):
    """(a, b) images by the Fraction formula: s = 1/(1 + |v|^2), a = s, b = s v."""
    scale = Fraction(1) / (1 + vector_norm_sq(v))
    return v.algebra.scalar(scale), v.scale(scale)


class TestFcEvalOracle:
    """``fc_eval`` on integer numerators against the Fraction formula, field by field."""

    def _assert_matches(self, v):
        image = fc_eval(v)
        a, b = fc_eval_fraction_formula(v)
        # == on exact elements compares den and the integer pairs, so both are canonical
        assert (image.a_img.den, image.a_img.terms) == (a.den, a.terms)
        assert (image.b_img.den, image.b_img.terms) == (b.den, b.terms)

    def test_random_vectors_in_ccl(self):
        rng = _rng(52, "fc-oracle")
        for _ in range(150):
            p = rng.randint(0, 6)
            q = rng.randint(0, 6 - p)
            alg = ccl(p if p + q else 1, q)
            v = rand_real_vector(rng, alg)
            self._assert_matches(v)
            self._assert_matches(v.scale(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))))
            self._assert_matches(rational_unit_vector(rng, alg))

    def test_positive_span_of_kasparov(self):
        rng = _rng(53, "fc-oracle")
        for _ in range(150):
            p = rng.randint(1, 6)
            q = rng.randint(0, 6 - p)
            alg = kasparov(p, q)
            self._assert_matches(alg.vector([rand_fraction(rng, 9, 8) for _ in range(p)]
                                            + [0] * q))

    def test_zero_vector(self):
        for alg in (ccl(1, 0), ccl(2, 3), kasparov(1, 2)):
            self._assert_matches(alg.zero())
            image = fc_eval(alg.zero())
            assert (image.a_img.den, image.a_img.terms) == (1, {0: (1, 0)})
            assert (image.b_img.den, image.b_img.terms) == (1, {})


class TestAlphaConjugation:
    def test_identity_element(self):
        alg = ccl(2, 0)
        g = PinElement.identity(alg)
        assert alpha_conjugation_check(g, alg.generator(1), alg.generator(2))

    def test_two_vector_product(self):
        alg = ccl(2, 0)
        g = PinElement.from_factors(alg, [alg.generator(1), alg.generator(2)])
        assert alpha_conjugation_check(g, alg.generator(1), alg.generator(2))

    def test_odd_element_rejected(self):
        alg = ccl(2, 0)
        g = PinElement.from_factors(alg, [alg.generator(1)])
        with pytest.raises(ValueError):
            alpha_conjugation_check(g, alg.generator(1), alg.generator(2))

    def test_negative_square_generator(self):
        # weight on the e_2^2 = -1 generator: the l2 norm is compared, not v^2
        alg = kasparov(1, 1)
        g = PinElement.identity(alg)
        assert alpha_conjugation_check(g, alg.vector([0, 1]), alg.generator(1))
        alg = kasparov(2, 1)
        g = PinElement.from_factors(alg, [alg.generator(1),
                                          alg.vector([Fraction(3, 5), Fraction(4, 5), 0])])
        assert alpha_conjugation_check(g, alg.vector([1, 2, 3]), alg.generator(3))

    def test_random_exact(self):
        rng = _rng(52, "alpha")
        for _ in range(200):
            p = rng.randint(0, 4)
            q = rng.randint(0, 4 - p)
            if p + q == 0:
                p = 1
            alg = ccl(p, q)
            g = rand_pin(rng, alg, 4, force_even=0)
            v = rand_real_vector(rng, alg)
            w = rand_multivector(rng, alg, 3)
            assert alpha_conjugation_check(g, v, w)

    def test_norm_preserved_under_conjugation(self):
        rng = _rng(53, "alpha-norm")
        alg = ccl(2, 2)
        from c2alg.clifford import vector_norm_sq
        for _ in range(20):
            g = rand_pin(rng, alg, 4, force_even=0)
            v = rational_unit_vector(rng, alg)
            gv = g.value * v * g.inverse_value()
            assert gv.grades() == {1}
            assert vector_norm_sq(gv) == vector_norm_sq(v) == 1
