"""Exact data on integer numerators against plain GaussianRational / Fraction loops.

Each reference below is the straightforward loop the integer kernels replace:
one GaussianRational product per term pair, summed as GaussianRationals, with
zero sums dropped at the end. Elements are read back through ``coeff``, which
builds each GaussianRational from the stored numerators.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2alg import clifford
from c2alg.clifford import (CliffordAlgebra, Multivector, SplitSpec, ccl, ccl_interleaved,
                            from_kasparov, kasparov, to_kasparov)
from c2alg.pin_spin import OrthogonalAction, PinElement, twisted_adjoint
from c2alg.scalars import GaussianRational, MultiPoly
from c2alg.verify import rand_pin, rational_phase, rational_unit_vector

ALGEBRAS = [ccl(2, 0), ccl(3, 2), ccl(0, 4), kasparov(2, 3), kasparov(0, 4),
            kasparov(3, 1), ccl_interleaved(2), ccl_interleaved(3)]
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 12, 25)


def coefficients(x: Multivector) -> dict:
    """mask -> GaussianRational for every stored term."""
    return {m: x.coeff(m) for m in x.terms}


def reference_mul(x: Multivector, y: Multivector) -> dict:
    out = {}
    for m1, c1 in coefficients(x).items():
        for m2, c2 in coefficients(y).items():
            sign, mask = x.algebra.blade_product(m1, m2)
            out[mask] = out.get(mask, GaussianRational.ZERO) + c1 * c2 * sign
    return {m: c for m, c in out.items() if c}


def reference_tensor_mul(spec: SplitSpec, s: Multivector, t: Multivector) -> dict:
    """Key a | b << k is a (x) b; each factor multiplies in its own sub-algebra."""
    def sub_algebra(indices):
        squares = [spec.algebra.squares[i - 1] for i in indices]
        ones = [1] * len(indices)
        return CliffordAlgebra(len(indices), 0, squares, ones, ones, "factor")

    alg1, alg2 = sub_algebra(spec.first), sub_algebra(spec.second)
    k = len(spec.first)
    low = (1 << k) - 1
    out = {}
    for m1, c1 in coefficients(s).items():
        for m2, c2 in coefficients(t).items():
            a1, b1, a2, b2 = m1 & low, m1 >> k, m2 & low, m2 >> k
            sa, ma = alg1.blade_product(a1, a2)
            sb, mb = alg2.blade_product(b1, b2)
            koszul = -1 if (b1.bit_count() * a2.bit_count()) & 1 else 1
            key = ma | mb << k
            out[key] = out.get(key, GaussianRational.ZERO) + c1 * c2 * (sa * sb * koszul)
    return {key: c for key, c in out.items() if c}


def rand_rational(rng, num=9):
    return Fraction(rng.randint(-num, num), rng.choice(DENOMINATORS))


def rand_element(rng, alg: CliffordAlgebra, max_terms=6) -> Multivector:
    """Mixed denominators; real, imaginary and complex coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        roll = rng.random()
        re = rand_rational(rng) if roll < 0.7 else 0
        im = rand_rational(rng) if roll > 0.3 else 0
        terms[rng.randrange(1 << alg.dim)] = GaussianRational(re, im)
    return alg.from_terms(terms)


def assert_canonical(x: Multivector):
    """den >= 1, integer pairs with no (0, 0), gcd of den and every numerator 1."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(a) is int and type(b) is int and (a or b) for a, b in x.terms.values())
    assert math.gcd(x.den, *[a for pair in x.terms.values() for a in pair]) == 1


class TestMultivectorProduct:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.label)
    def test_matches_reference(self, alg):
        rng = random.Random(f"kernel:{alg.label}")
        for _ in range(60):
            x, y = rand_element(rng, alg), rand_element(rng, alg)
            product = x * y
            assert coefficients(product) == reference_mul(x, y)
            assert_canonical(product)
            assert all(type(c) is GaussianRational for c in coefficients(product).values())

    def test_integer_terms_clear_every_denominator(self):
        alg = ccl(2, 1)
        x = alg.from_terms({0: GaussianRational(Fraction(1, 6), Fraction(-3, 4)),
                            0b101: GaussianRational(Fraction(5, 9))})
        assert x.den == 36
        assert x.terms == {0: (6, -27), 0b101: (20, 0)}
        assert (alg.zero().den, alg.zero().terms) == (1, {})

    @pytest.mark.parametrize("alg", [ccl(2, 0), ccl_interleaved(1)], ids=lambda a: a.label)
    def test_full_cancellation_stores_nothing(self, alg):
        # (1 + e1)(1 - e1) = 1 - e1^2 = 0 when e1^2 = 1
        one, e1 = alg.scalar(Fraction(1, 3)), alg.generator(1).scale(Fraction(1, 3))
        product = (one + e1) * (one - e1)
        assert product.terms == {} == reference_mul(one + e1, one - e1)
        assert product.den == 1
        assert not product

    def test_partial_cancellation_drops_cancelled_blades(self):
        alg = kasparov(1, 1)
        e1, e2 = alg.generator(1), alg.generator(2)
        x = alg.scalar(1) + e2
        y = alg.scalar(1) - e2 + e1
        # 1 - e2 + e1 + e2 - e2^2 + e2e1 = 2 + e1 - e1e2 (e2^2 = -1)
        product = x * y
        assert coefficients(product) == reference_mul(x, y)
        assert set(product.terms) == {0, 0b01, 0b11}
        assert_canonical(product)

    @pytest.mark.parametrize("alg", ALGEBRAS[:4], ids=lambda a: a.label)
    def test_empty_operands(self, alg):
        x = rand_element(random.Random(1), alg)
        zero = alg.zero()
        for product in (zero * x, x * zero, zero * zero):
            assert product.terms == {}
            assert product.exact

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.label)
    def test_exact_times_numeric_takes_dense_path(self, alg, monkeypatch):
        # numeric data is a dense array: an exact element times a vector in
        # floats is a dense_mul_vector call and never reaches the integer kernel
        rng = random.Random(f"dense:{alg.label}")
        x = rand_element(rng, alg)
        v = alg.vector([GaussianRational(rand_rational(rng), rand_rational(rng))
                        for _ in range(alg.dim)])
        exact = reference_mul(x, v)

        def refuse(*args):
            raise AssertionError("numeric operand reached the integer kernel")

        monkeypatch.setattr(clifford, "integer_product", refuse)
        product = alg.dense_mul_vector(x.to_dense(), v.to_dense()[1 << np.arange(alg.dim)])
        assert max(abs(complex(exact.get(m, 0)) - c) for m, c in enumerate(product)) < 1e-12


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
CANONICAL_ALG = ccl(2, 1)  # blocked, so to_kasparov applies


@st.composite
def elements(draw, alg=CANONICAL_ALG):
    return alg.from_terms(draw(st.dictionaries(st.integers(0, (1 << alg.dim) - 1), gaussians,
                                               max_size=4)))


def reference_add(x: Multivector, y: Multivector) -> dict:
    out = coefficients(x)
    for m, c in coefficients(y).items():
        out[m] = out.get(m, GaussianRational.ZERO) + c
    return {m: c for m, c in out.items() if c}


class TestCanonicalForm:
    @settings(deadline=None, max_examples=80)
    @given(elements(), elements(), gaussians, st.sampled_from([[1], [2], [1, 3], [2, 3]]))
    def test_every_exact_operation_stays_canonical(self, x, y, c, first):
        spec = SplitSpec(CANONICAL_ALG, first)
        kx = to_kasparov(x)
        results = [x + y, x - y, x * y, x.scale(c), x + c, x * c, x.bar(), x.star(), -x,
                   spec.split(x), spec.merge(spec.split(x) * spec.split(y)),
                   kx, kx * to_kasparov(y), from_kasparov(kx)]
        for r in (x, y, *results):
            assert_canonical(r)
        assert coefficients(x * y) == reference_mul(x, y)
        assert coefficients(x + y) == reference_add(x, y)
        assert coefficients(x - y) == reference_add(x, -y)
        assert coefficients(x.scale(c)) == {m: k * c for m, k in coefficients(x).items() if c}
        assert coefficients(-x) == {m: -k for m, k in coefficients(x).items()}

    @settings(deadline=None, max_examples=80)
    @given(elements(), elements(), gaussians)
    def test_equality_is_coefficientwise(self, x, y, c):
        # the same values reached through different denominators compare equal
        pairs = [(x, y), (x * y, Multivector(CANONICAL_ALG, reference_mul(x, y))),
                 (x + y, y + x), (x - x, CANONICAL_ALG.zero()),
                 (x.scale(c).scale(1 / c) if c else x, x),
                 (x.scale(c), x * CANONICAL_ALG.scalar(c)),
                 (x.bar().bar(), x), (to_kasparov(x.star()), to_kasparov(x).star())]
        for a, b in pairs:
            assert (a == b) == (coefficients(a) == coefficients(b))
        assert all(a == b for a, b in pairs[1:])

    def test_float_data_refused(self):
        # numeric data is a dense array; every route to a float coefficient
        # ends in GaussianRational.from_value with one TypeError
        alg = ccl(2, 0)
        x = alg.generator(1)
        message = "coefficients are exact \\(int, Fraction or GaussianRational\\), not float"
        for build in (lambda: alg.scalar(1.0), lambda: alg.vector([0.6, 0.8]),
                      lambda: alg.from_terms({0: GaussianRational(Fraction(3, 5)), 3: 0.8}),
                      lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5, lambda: x - 0.5,
                      lambda: x.scale(0.5)):
            with pytest.raises(TypeError, match=message):
                build()

    def test_exact_never_equals_numeric(self):
        # an exact element compares equal to exact scalars only, never to a float
        alg = CANONICAL_ALG
        assert (alg.scalar(1) == 1.0) is False
        assert alg.scalar(1) != 1.0
        assert alg.scalar(1) != complex(1.0)
        assert alg.scalar(1) == 1 == Fraction(1)
        assert alg.scalar(1) == GaussianRational(1)


class TestTensorProduct:
    @pytest.mark.parametrize("alg", [ccl(3, 2), kasparov(2, 2), ccl_interleaved(2)],
                             ids=lambda a: a.label)
    def test_matches_reference(self, alg):
        rng = random.Random(f"tensor:{alg.label}")
        for _ in range(30):
            first = [k for k in range(1, alg.dim + 1) if rng.random() < 0.5]
            spec = SplitSpec(alg, first)
            s = spec.split(rand_element(rng, alg, 4))
            t = spec.split(rand_element(rng, alg, 4))
            product = s * t
            assert coefficients(product) == reference_tensor_mul(spec, s, t)
            assert_canonical(product)

    def test_cancellation_and_empty(self):
        alg = ccl(2, 0)
        spec = SplitSpec(alg, [1])
        one, e1 = alg.scalar(1), alg.generator(1)
        assert (spec.split(one + e1) * spec.split(one - e1)).terms == {}
        assert (spec.split(alg.zero()) * spec.split(e1)).terms == {}

    @pytest.mark.parametrize("alg", [ccl(3, 1), kasparov(2, 2), ccl_interleaved(2)],
                             ids=lambda a: a.label)
    def test_numeric_and_mixed_coefficients(self, alg):
        # the dense kernel of the joined algebra multiplies split elements, in
        # floats, with the Koszul signs of the exact tensor product
        rng = random.Random(f"tensor-numeric:{alg.label}")
        for _ in range(10):
            first = [k for k in range(1, alg.dim + 1) if rng.random() < 0.5]
            spec = SplitSpec(alg, first)
            x = rand_element(rng, alg, 4)
            v = alg.vector([GaussianRational(rand_rational(rng), rand_rational(rng))
                            for _ in range(alg.dim)])
            expected = spec.split(x * v).to_dense()
            coords = spec.split(v).to_dense()[1 << np.arange(alg.dim)]
            product = spec.joined.dense_mul_vector(spec.split(x).to_dense(), coords)
            assert np.max(np.abs(product - expected)) < 1e-12


class TestFromFactors:
    @pytest.mark.parametrize("alg", [ccl(3, 1), ccl(0, 4), ccl_interleaved(2), kasparov(3, 0)],
                             ids=lambda a: a.label)
    def test_value_matches_reference_fold(self, alg):
        rng = random.Random(f"factors:{alg.label}")
        for _ in range(20):
            vectors = [rational_unit_vector(rng, alg) for _ in range(rng.randint(0, 4))]
            phase = rational_phase(rng)
            g = PinElement.from_factors(alg, vectors, phase)
            value = alg.scalar(phase)
            for v in vectors:
                value = Multivector(alg, reference_mul(value, v))
            assert coefficients(g.value) == coefficients(value)
            assert_canonical(g.value)
            assert g.parity == len(vectors) & 1


def rand_matrix(rng, n):
    return tuple(tuple(rand_rational(rng) for _ in range(n)) for _ in range(n))


def reference_matmul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


class TestOrthogonalAction:
    def test_matmul_matches_fraction_sums(self):
        rng = random.Random("matmul")
        for n in (1, 2, 3, 5):
            for _ in range(10):
                a, b = rand_matrix(rng, n), rand_matrix(rng, n)
                product = OrthogonalAction(a) @ OrthogonalAction(b)
                assert product.rows == reference_matmul(a, b)
                assert all(type(x) is Fraction for row in product.rows for x in row)

    def test_numeric_entries_refused(self):
        # a numeric rho is an ndarray; the action holds exact entries only
        with pytest.raises(ValueError, match="holds exact data"):
            OrthogonalAction(((0.5, 0.0), (1.0, 2.0)))
        with pytest.raises(ValueError, match="holds exact data"):
            OrthogonalAction(((Fraction(1, 3), 2.0), (Fraction(0), Fraction(-1))))

    def test_is_orthogonal_matches_fraction_sums(self):
        rng = random.Random("orthogonal")
        for _ in range(40):
            alg = ccl(rng.randint(1, 3), rng.randint(0, 2))
            rho = twisted_adjoint(rand_pin(rng, alg, 4))
            n = rho.dim
            gram = reference_matmul(tuple(zip(*rho.rows)), rho.rows)
            assert gram == tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))
            assert rho.is_orthogonal()
            # a perturbed entry breaks orthogonality in the reference and the kernel alike
            i, j = rng.randrange(n), rng.randrange(n)
            rows = [list(row) for row in rho.rows]
            rows[i][j] += Fraction(1, rng.choice(DENOMINATORS))
            bent = OrthogonalAction(tuple(map(tuple, rows)))
            assert not bent.is_orthogonal()
            gram = reference_matmul(tuple(zip(*bent.rows)), bent.rows)
            assert gram != tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))

    def test_ragged_or_non_square_rows_refused(self):
        for rows in (((1, 0), (0,)), ((1, 0),), ((1,), (0,)), ((1, 0, 0), (0, 1, 0), (0, 0))):
            with pytest.raises(ValueError, match="OrthogonalAction is square"):
                OrthogonalAction(rows)

    def test_matmul_refuses_different_sizes(self):
        with pytest.raises(ValueError, match="sizes 2 and 1"):
            OrthogonalAction(((1, 0), (0, 1))) @ OrthogonalAction(((1,),))
        with pytest.raises(ValueError, match="sizes 1 and 3"):
            OrthogonalAction(((1,),)) @ twisted_adjoint(PinElement.identity(ccl(3, 0)))

    def test_stored_in_lowest_terms(self):
        m = OrthogonalAction(((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), 1)))
        assert m.den == 5 and m.numerators == ((3, -4), (4, 5))
        assert OrthogonalAction(((2, 0), (0, 2))).den == 1
        rng = random.Random("lowest")
        for _ in range(20):
            rho = twisted_adjoint(rand_pin(rng, ccl(3, 1), 4))
            for action in (rho, rho @ rho, OrthogonalAction(tuple(zip(*rho.rows)))):
                entries = [x for row in action.numerators for x in row]
                assert all(type(x) is int for x in entries)
                assert math.gcd(action.den, *entries) == 1
                assert action == OrthogonalAction(action.rows)

    def test_scaled_orthogonal_is_not_orthogonal(self):
        # columns orthogonal to each other but of norm 4: the den^2 test must see it
        m = OrthogonalAction(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-2))))
        assert not m.is_orthogonal()
        half = OrthogonalAction(((Fraction(3, 5), Fraction(-4, 5)),
                                 (Fraction(4, 5), Fraction(3, 5))))
        assert half.is_orthogonal()


class TestMultiPoly:
    def test_product_drops_cancelled_coefficients(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        product = (x + y) * (x - y)  # the x*y terms cancel
        assert product.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
        assert (x - x).terms == {}
        assert ((x + y) * MultiPoly.zero(2)).terms == {}
        assert (x * 0).terms == {}

    def test_results_match_validated_constructor(self):
        rng = random.Random("poly")
        for _ in range(40):
            p = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rand_rational(rng)
                              for _ in range(rng.randint(0, 4))})
            q = MultiPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rand_rational(rng)
                              for _ in range(rng.randint(0, 4))})
            affine = [MultiPoly(3, {(0, 0, 0): rand_rational(rng), (0, 0, 1): rand_rational(rng),
                                    (1, 0, 0): rand_rational(rng)}) for _ in range(3)]
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            x0 = MultiPoly.variable(3, 0)
            for result in (p + q, -p, p * q, p * Fraction(2, 3), p - p, p ** 2,
                           p.substitute(affine), p.compose_linear(rows, rng.choice(DENOMINATORS)),
                           p.permute_vars([2, 0, 1]), (p * x0).shift_out_var(0)):
                assert result == MultiPoly(3, result.terms)
                assert all(type(c) is Fraction and c for c in result.terms.values())
                assert all(type(e) is tuple and len(e) == 3 for e in result.terms)
                # lowest terms: one positive den, coprime to the nonzero integer numerators
                assert type(result.den) is int and result.den >= 1
                assert all(type(c) is int and c for c in result.numerators.values())
                assert math.gcd(result.den, *result.numerators.values()) == 1
                assert result.numerators or result.den == 1
            # old variable i becomes new variable perm[i]
            rotated = {(b, c, a): v for (a, b, c), v in p.terms.items()}
            assert p.permute_vars([2, 0, 1]).terms == rotated
            assert (p * x0).shift_out_var(0) == p
            expected = {}
            for e1, c1 in p.terms.items():
                for e2, c2 in q.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    expected[e] = expected.get(e, Fraction(0)) + c1 * c2
            assert (p * q).terms == {e: c for e, c in expected.items() if c}
