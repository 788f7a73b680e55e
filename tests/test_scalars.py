import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from c2alg.clifford import ccl, parse_multivector
from c2alg.scalars import (GaussianRational, MultiPoly, RatFunc, rational_from_string,
                           rational_to_string)

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gaussian_st = st.builds(GaussianRational, fractions_st, fractions_st)


def poly2_st():
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.builds(lambda d: MultiPoly(2, d),
                     st.dictionaries(exps, fractions_st, max_size=4))


@pytest.mark.parametrize("value", [
    GaussianRational(Fraction(1, 2), -3),
    MultiPoly(2, {(1, 0): Fraction(3, 4), (0, 2): -2}),
    RatFunc(MultiPoly.variable(2, 0), MultiPoly(2, {(0, 1): 3, (0, 0): Fraction(1, 5)})),
], ids=["GaussianRational", "MultiPoly", "RatFunc"])
def test_immutable_scalars_copy_and_pickle(value):
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
        assert str(copied) == str(value)
        with pytest.raises(AttributeError, match="immutable"):
            copied.den = 1


class TestRational:
    def test_string_round_trip(self):
        assert rational_from_string("-3/6") == Fraction(-1, 2)
        assert rational_to_string(Fraction(18)) == "18/1"
        assert rational_from_string("0.25") == Fraction(1, 4)

    def test_bad_string(self):
        with pytest.raises(ValueError):
            rational_from_string("one half")

    def test_values_past_the_print_limit_refused(self):
        # Python prints integers of at most 4300 digits; what is read must print
        assert rational_from_string("1e4299") == 10**4299
        assert rational_from_string("1e-4299") == Fraction(1, 10**4299)
        for text in ("1e4300", "1e-4300", "99e4299", "1.5e4300", "1e+4300"):
            with pytest.raises(ValueError, match="not a rational"):
                rational_from_string(text)

    def test_lowest_terms_invariant(self):
        f = Fraction(6, -4)
        assert f.denominator > 0 and abs(f.numerator) == 3


class TestGaussianRational:
    @settings(deadline=None, max_examples=60)
    @given(gaussian_st, gaussian_st, gaussian_st)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(deadline=None, max_examples=60)
    @given(gaussian_st)
    def test_inverse_and_conjugation(self, a):
        assert a.conjugate().conjugate() == a
        if a:
            assert a * (GaussianRational.ONE / a) == GaussianRational.ONE
            assert (a * a.conjugate()).im == 0

    @settings(deadline=None, max_examples=60)
    @given(gaussian_st, gaussian_st)
    def test_conjugation_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_i_squared(self):
        assert GaussianRational.I * GaussianRational.I == GaussianRational(-1)

    def test_pow(self):
        assert GaussianRational.I ** 4 == GaussianRational.ONE
        assert GaussianRational(2) ** -1 == GaussianRational(Fraction(1, 2))

    @pytest.mark.parametrize("c, text", [
        (GaussianRational(0, 1), "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, Fraction(-3, 2)), "-3/2*i"),
        (GaussianRational(1, 1), "(1 + i)"),
        (GaussianRational(Fraction(-1, 2), -3), "(-1/2 - 3*i)"),
        (GaussianRational(Fraction(3, 4)), "3/4"),
    ])
    def test_str_is_the_multivector_grammar(self, c, text):
        assert str(c) == text
        alg = ccl(1, 0)
        assert parse_multivector(str(c), alg) == alg.scalar(c)


class TestMultiPoly:
    @settings(deadline=None, max_examples=50)
    @given(poly2_st(), poly2_st(), poly2_st())
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f

    def test_substitute_linear(self):
        # f(x, y) = x*y under (x, y) -> (y, -x)
        f = MultiPoly(2, {(1, 1): Fraction(1)})
        M = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
        assert f.compose_linear(M) == -f

    def test_parity_helpers(self):
        f = MultiPoly(2, {(2, 1): Fraction(3), (0, 1): Fraction(1)})
        assert f.is_even_in(0) and f.is_odd_in(1)
        assert f.shift_out_var(1) == MultiPoly(2, {(2, 0): Fraction(3), (0, 0): Fraction(1)})

    def test_grlex_leading(self):
        f = MultiPoly(2, {(1, 1): Fraction(5), (2, 0): Fraction(2), (0, 1): Fraction(7)})
        assert f.leading_monomial_grlex() == (2, 0)
        assert f.leading_coeff_grlex() == 2

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({(0, 0, 0): 7}, "7"),
        ({(0, 0, 0): Fraction(-5, 3)}, "-5/3"),
        ({(1, 0, 0): 1, (0, 2, 0): -1}, "x0 - x1^2"),
        ({(1, 1, 0): -1, (0, 0, 1): -1}, "-x2 - x0*x1"),
        ({(2, 0, 0): Fraction(-1, 2), (0, 0, 3): Fraction(3, 4), (0, 0, 0): -2},
         "-2 - 1/2*x0^2 + 3/4*x2^3"),
        ({(1, 0, 2): Fraction(2, 5), (0, 0, 0): 1, (3, 0, 0): -3},
         "1 + 2/5*x0*x2^2 - 3*x0^3"),
        # one degree orders by exponent tuple: x1 = (0, 1, 0) before x0 = (1, 0, 0)
        ({(1, 1, 0): Fraction(-1, 7), (0, 1, 0): 1, (1, 0, 0): 1}, "x1 + x0 - 1/7*x0*x1"),
    ])
    def test_str(self, terms, text):
        # unit and -1 coefficients leave the bare monomial, "+ -" folds to "- ",
        # terms go by degree, then exponent tuple
        assert str(MultiPoly(3, terms)) == repr(MultiPoly(3, terms)) == text


class TestRatFunc:
    def test_canonical_reduction(self):
        x = MultiPoly.variable(1, 0)
        f = RatFunc(x * x + x, x + 1)
        assert f == RatFunc(x)

    def test_multivariate_reduction(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        f = RatFunc((x + y) * (x - y), x - y)
        assert f == RatFunc(x + y)

    def test_denominator_normalized_grlex(self):
        x = MultiPoly.variable(1, 0)
        f = RatFunc(MultiPoly.one(1), x * 2 + 2)
        assert f.den.leading_coeff_grlex() == 1

    def test_cross_multiplication_equality(self):
        t = MultiPoly.variable(1, 0)
        one = MultiPoly.one(1)
        a = RatFunc(one, one + t * t)
        lhs = a - a * a
        rhs = RatFunc(t * t, (one + t * t) * (one + t * t))
        assert lhs == rhs

    @settings(deadline=None, max_examples=40)
    @given(poly2_st(), poly2_st())
    def test_field_ops(self, f, g):
        one = MultiPoly.one(2)
        a = RatFunc(f, one + MultiPoly.variable(2, 0) ** 2)
        b = RatFunc(g, one + MultiPoly.variable(2, 1) ** 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(MultiPoly.one(1), MultiPoly.zero(1))
