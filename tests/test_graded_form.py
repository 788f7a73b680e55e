"""GradedRatFunc on MultiPoly numerators over one denominator.

The product and the involutions are checked against per-blade RatFunc
arithmetic signed by ``CliffordAlgebra.blade_product``; the mixed
MultiPoly/RatFunc operators are checked in both operand orders, and so is a
scalar (int, MultiPoly or RatFunc) with a graded element.
"""

import random

import pytest

from c2alg.clifford import ccl
from c2alg.funcalc import GradedRatFunc, comultiplication, expand_slot, s_generators
from c2alg.scalars import MultiPoly, RatFunc

NSLOTS = 4


def eps(mask: int, nvars: int = 1, nslots: int = NSLOTS) -> GradedRatFunc:
    return GradedRatFunc(nvars, nslots, {mask: RatFunc.one(nvars)})


def rand_ratfunc(rng, nvars: int) -> RatFunc:
    t = MultiPoly.variable(nvars, rng.randrange(nvars))
    num = MultiPoly.constant(nvars, rng.randint(-3, 3)) + t * rng.randint(-2, 2)
    den = MultiPoly.one(nvars) + t * t * rng.randint(0, 2)
    return RatFunc(num, den)


def rand_element(rng, nvars: int = 2, nslots: int = 3) -> GradedRatFunc:
    masks = rng.sample(range(1 << nslots), rng.randint(0, 4))
    return GradedRatFunc(nvars, nslots, {m: rand_ratfunc(rng, nvars) for m in masks})


def reference_product(x: GradedRatFunc, y: GradedRatFunc) -> dict:
    """{mask: RatFunc} of x * y, summed blade by blade."""
    alg = ccl(x.nslots, 0)
    out: dict = {}
    for m1, f1 in x.terms.items():
        for m2, f2 in y.terms.items():
            sign, mask = alg.blade_product(m1, m2)
            out[mask] = out.get(mask, RatFunc.zero(x.nvars)) + f1 * f2 * sign
    return out


class TestStar:
    def test_reversal_sign_by_grade(self):
        # reversing k generators is k(k-1)/2 swaps: + + - - + for k = 0..4
        for mask, sign in ((0, 1), (0b1, 1), (0b11, -1), (0b111, -1), (0b1111, 1)):
            assert eps(mask).star() == eps(mask) * sign

    def test_star_of_eps1_eps2_is_its_negative(self):
        e12 = eps(0b01) * eps(0b10)
        assert e12.star() == -e12
        e123 = e12 * eps(0b100)
        assert e123.star() == -e123

    def test_star_reverses_products(self):
        rng = random.Random(30)
        for _ in range(60):
            x, y = (eps(rng.randrange(1 << NSLOTS)) * eps(rng.randrange(1 << NSLOTS))
                    for _ in range(2))
            assert (x * y).star() == y.star() * x.star()

    def test_star_is_an_involution_on_random_elements(self):
        rng = random.Random(31)
        for _ in range(30):
            x = rand_element(rng)
            assert x.star().star() == x


class TestOneDenominator:
    def test_different_denominators_read_back_through_coeff(self):
        t = MultiPoly.variable(1, 0)
        f = RatFunc(t, MultiPoly.one(1) + t * t)
        g = RatFunc(MultiPoly.one(1), MultiPoly.constant(1, 2) + t * t)
        x = GradedRatFunc(1, 2, {0b01: f, 0b10: g})
        assert x.coeff(0b01) == f and x.coeff(0b10) == g
        assert x.coeff(0b11).is_zero() and x.coeff(0).is_zero()
        assert set(x.numerators) == {0b01, 0b10}

    def test_equal_denominators_are_shared(self):
        db = comultiplication("b")
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert db.den == MultiPoly.one(2) + x * x + y * y

    def test_forms_over_d_and_d_squared_compare_equal(self):
        t = MultiPoly.variable(1, 0)
        d = MultiPoly.one(1) + t * t
        over_d = GradedRatFunc(1, 2, {0b01: RatFunc(t, d), 0b11: RatFunc(MultiPoly.one(1), d)})
        over_d2 = GradedRatFunc(1, 2, {0b01: RatFunc(t * d, d * d),
                                       0b11: RatFunc(d, d * d)})
        assert over_d.den != over_d2.den
        assert over_d == over_d2 and over_d2 == over_d
        assert over_d != over_d2 * 2
        assert over_d + over_d2 == over_d * 2

    def test_terms_is_a_ratfunc_view(self):
        a, b = s_generators()
        for element in (a, b, comultiplication("a"), comultiplication("b")):
            for mask, f in element.terms.items():
                assert isinstance(f, RatFunc) and f == element.coeff(mask)

    def test_product_and_sum_match_per_blade_arithmetic(self):
        rng = random.Random(32)
        for _ in range(40):
            x, y = rand_element(rng), rand_element(rng)
            product = x * y
            expected = {m: f for m, f in reference_product(x, y).items() if not f.is_zero()}
            assert set(product.numerators) == set(expected)
            for mask, f in expected.items():
                assert product.coeff(mask) == f
            total = x + y
            for mask in range(1 << x.nslots):
                assert total.coeff(mask) == x.coeff(mask) + y.coeff(mask)

    def test_swap_slots_twice_is_identity(self):
        rng = random.Random(33)
        for _ in range(20):
            x = rand_element(rng)
            assert x.swap_slots(0, 2).swap_slots(0, 2) == x


class TestShapeErrors:
    def test_negative_slot_count_refused(self):
        with pytest.raises(ValueError, match="odd generators"):
            GradedRatFunc(1, -1)

    def test_expand_slot_without_variable_refused(self):
        element = GradedRatFunc(1, 3, {4: RatFunc.one(1)})
        with pytest.raises(ValueError, match="no function variable"):
            expand_slot(element, 2)

    def test_mismatched_shapes_refused(self):
        with pytest.raises(ValueError, match="shape"):
            eps(1, nslots=2) + eps(1, nslots=3)


class TestMixedPolynomialOperands:
    def test_multipoly_and_ratfunc_in_either_order(self):
        x = MultiPoly.variable(1, 0)
        r = RatFunc(MultiPoly.one(1), MultiPoly.one(1) + x * x)
        assert x * r == r * x
        assert x + r == r + x
        assert x - r == -(r - x)
        assert x - r == RatFunc(x) - r


class TestMixedGradedOperands:
    def test_scalar_on_the_left_of_a_graded_element(self):
        _, b = s_generators()
        one = RatFunc.one(1)
        graded_one = GradedRatFunc.scalar(1, 1, one)
        assert one + b == graded_one + b
        assert one * b == graded_one * b == b
        assert one - b == graded_one - b
        assert 1 - b == graded_one - b
        assert 2 * b == b + b

    def test_polynomial_with_a_graded_element(self):
        _, b = s_generators()
        x = MultiPoly.variable(1, 0)
        graded_x = GradedRatFunc.scalar(1, 1, RatFunc(x))
        assert x + b == b + x == graded_x + b
        assert x * b == b * x == graded_x * b
        assert b - x == b - graded_x
        assert x - b == graded_x - b
        with pytest.raises(ValueError, match="model shape mismatch"):
            MultiPoly.variable(2, 0) + b

    def test_unknown_operand_is_a_type_error(self):
        with pytest.raises(TypeError):
            RatFunc.one(1) + "x"
        with pytest.raises(TypeError):
            "x" - s_generators()[1]
