import math
import random
from fractions import Fraction

import numpy as np
import pytest

from c2alg.clifford import (Multivector, SplitSpec, ccl, ccl_interleaved, format_multivector,
                            format_terms, from_kasparov, graded_tensor_split, kasparov,
                            parse_multivector, relabel, to_kasparov, vector_norm_sq)
from c2alg.scalars import GaussianRational
from c2alg.verify import _rng, rand_coeff, rand_multivector, rational_unit_vector

I = GaussianRational.I


class TestProduct:
    def test_generator_squares_to_one(self):
        alg = ccl(2, 0)
        e1 = alg.generator(1)
        assert e1 * e1 == alg.scalar(1)

    def test_anticommutation(self):
        alg = ccl(2, 0)
        e1, e2 = alg.generator(1), alg.generator(2)
        assert e1 * e2 == -(e2 * e1)

    def test_bivector_squares_to_minus_one(self):
        alg = ccl(2, 0)
        b = alg.generator(1) * alg.generator(2)
        assert b * b == alg.scalar(-1)

    def test_signature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ccl(1, 0).generator(1) * ccl(2, 0).generator(1)

    def test_polarization(self):
        alg = ccl(2, 1)
        v = alg.vector([1, 2, 3])
        w = alg.vector([Fraction(1, 2), -1, 0])
        dot = Fraction(1, 2) - 2
        assert v * w + w * v == alg.scalar(2 * dot)

    def test_associativity_random(self):
        rng = _rng(3, "assoc")
        alg = ccl(2, 2)
        for _ in range(50):
            x = rand_multivector(rng, alg)
            y = rand_multivector(rng, alg)
            z = rand_multivector(rng, alg)
            assert (x * y) * z == x * (y * z)


KERNEL_ALGEBRAS = ([ccl(p, q) for p, q in ((1, 0), (2, 1), (3, 3), (0, 4), (6, 0))]
                   + [kasparov(p, q) for p, q in ((0, 1), (1, 2), (2, 4))]
                   + [ccl_interleaved(n) for n in (1, 2, 3)])


def _coords(v) -> np.ndarray:
    """The generator coefficients of a grade-1 element, as a complex array."""
    return v.to_dense()[1 << np.arange(v.algebra.dim)]


class TestDenseKernel:
    """The dense product by a vector and the dense bar, against exact elements as reference."""

    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=lambda a: a.label)
    def test_numeric_product_matches_exact(self, alg):
        rng = _rng(31, alg.label)
        for _ in range(12):
            # sparse and dense left operands; Gaussian-rational vector coefficients
            x = rand_multivector(rng, alg, rng.choice([1, 3, 1 << alg.dim]))
            v = alg.vector([rand_coeff(rng) for _ in range(alg.dim)])
            product = alg.dense_mul_vector(x.to_dense(), _coords(v))
            assert np.max(np.abs(product - (x * v).to_dense())) <= 1e-12

    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=lambda a: a.label)
    def test_batched_rows_and_star(self, alg):
        # elements of 1, 4 and 2^n terms times three vectors in turn, as a lift builds them
        rng = _rng(32, alg.label)
        vectors = [rational_unit_vector(rng, alg) for _ in range(3)]
        for x in [rand_multivector(rng, alg, k) for k in (1, 4, 1 << alg.dim)]:
            exact, dense = x, x.to_dense()
            for v in vectors:
                exact, dense = exact * v, alg.dense_mul_vector(dense, _coords(v))
                assert np.max(np.abs(dense - exact.to_dense())) <= 1e-12
            assert np.max(np.abs(alg.dense_bar(x.to_dense()) - x.bar().to_dense())) <= 1e-15

    def test_dense_kernel_propagates_nan(self):
        # a NaN coefficient reaches the product and bar, so a residual over them is NaN
        alg = ccl(2, 0)
        nan = np.array([math.nan, 2.0, 0.0, 0.0], dtype=complex)  # NaN + 2 e1
        e1 = alg.generator(1).to_dense()
        for out in (alg.dense_mul_vector(nan, np.array([1.0, 0.0])),
                    alg.dense_mul_vector(e1, np.array([math.nan, 0.0])),
                    alg.dense_bar(nan)):
            assert math.isnan(np.max(np.abs(out - e1)))


def _swap_count_sign(alg, m1, m2):
    """Reference blade sign: count the swaps that sort the word m1 m2 one shift
    at a time, then toggle once per shared negative-square generator."""
    a = m1 >> 1
    swaps = 0
    while a:
        swaps += (a & m2).bit_count()
        a >>= 1
    swaps += (m1 & m2 & alg.neg_square_mask).bit_count()
    return -1 if swaps & 1 else 1


def _split_reference_sign(spec, mask):
    """Reference shuffle sign: walk the blade, adding the second-factor
    generators already passed at each first-factor generator."""
    swaps = seen_second = 0
    for i in range(spec.algebra.dim):
        if mask >> i & 1:
            if i + 1 in spec.first:
                swaps += seen_second
            else:
                seen_second += 1
    return -1 if swaps & 1 else 1


class TestBladeSign:
    """The bit-arithmetic sign rule against the swap-count loop as oracle."""

    @pytest.mark.parametrize("alg", [ccl(3, 2), kasparov(2, 3), ccl_interleaved(2)],
                             ids=lambda a: a.label)
    def test_every_blade_pair(self, alg):
        for m1 in range(1 << alg.dim):
            for m2 in range(1 << alg.dim):
                assert alg.blade_product(m1, m2) == (_swap_count_sign(alg, m1, m2), m1 ^ m2)

    @pytest.mark.parametrize("alg", [ccl(16, 0), kasparov(8, 8)], ids=lambda a: a.label)
    def test_random_pairs_and_dense_table(self, alg):
        rng = random.Random(41)
        size = 1 << alg.dim
        for _ in range(10_000):
            m1, m2 = rng.randrange(size), rng.randrange(size)
            assert alg.blade_product(m1, m2) == (_swap_count_sign(alg, m1, m2), m1 ^ m2)
        # the dense kernel's table, against the generator-by-generator construction
        index = np.arange(size)
        below = np.zeros_like(index)
        flip = np.zeros_like(index)
        for i in range(alg.dim):
            flip |= below << i
            below ^= (index >> i) & 1
        flip ^= index & alg.neg_square_mask
        assert np.array_equal(alg._tables()[2], flip)

    @pytest.mark.parametrize("first", [[1], [2, 4], [1, 3, 5]])
    def test_split_sign(self, first):
        alg = ccl(3, 2)
        spec = SplitSpec(alg, first)
        for mask in range(1 << alg.dim):
            t = spec.split(alg.from_terms({mask: GaussianRational.ONE}))
            (pair,) = t.terms.values()
            assert t.den == 1 and pair == (_split_reference_sign(spec, mask), 0)


class TestRealStructure:
    def test_sign_generator_negated(self):
        alg = ccl(1, 1)
        w1 = alg.generator(2)
        assert w1.bar() == -w1

    def test_coefficient_conjugated(self):
        alg = ccl(1, 1)
        v1 = alg.generator(1)
        assert v1.scale(I).bar() == v1.scale(-I)

    def test_mixed_blade_and_involution(self):
        alg = ccl(1, 1)
        vw = alg.generator(1) * alg.generator(2)
        assert vw.bar() == -vw
        assert vw.bar().bar() == vw

    def test_multiplicative_even_involutive(self):
        rng = _rng(5, "bar")
        alg = ccl(2, 2)
        for _ in range(30):
            x = rand_multivector(rng, alg)
            y = rand_multivector(rng, alg)
            assert (x * y).bar() == x.bar() * y.bar()
            assert x.bar().bar() == x
            assert x.bar().grades() == x.grades()

    def test_is_real(self):
        alg = ccl(2, 0)
        e1 = alg.generator(1)
        for real in (alg.scalar(Fraction(1, 2)), e1 + Fraction(1, 4), alg.zero()):
            assert real.is_real() is True
        tiny = GaussianRational(1, Fraction(1, 10 ** 300))
        for non_real in (e1.scale(I), e1 + I / 2, alg.scalar(tiny)):
            assert non_real.is_real() is False


class TestStar:
    def test_vector_fixed(self):
        alg = ccl(1, 0)
        v1 = alg.generator(1)
        assert v1.star() == v1

    def test_bivector_reversed(self):
        alg = ccl(2, 0)
        b = alg.generator(1) * alg.generator(2)
        assert b.star() == -b

    def test_conjugate_linear_on_scalars(self):
        alg = ccl(1, 0)
        assert alg.scalar(I).star() == alg.scalar(-I)

    def test_anti_multiplicative(self):
        rng = _rng(6, "star")
        alg = ccl(2, 1)
        for _ in range(30):
            x = rand_multivector(rng, alg)
            y = rand_multivector(rng, alg)
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x


class TestKasparov:
    def test_sign_generator_image(self):
        alg = ccl(1, 1)
        w1 = alg.generator(2)
        img = to_kasparov(w1)
        target = kasparov(1, 1)
        assert img == target.generator(2).scale(I)
        assert img * img == target.scalar(1)

    def test_trivial_generator_image(self):
        alg = ccl(1, 1)
        assert to_kasparov(alg.generator(1)) == kasparov(1, 1).generator(1)

    def test_wrong_source_algebra_rejected(self):
        # interleaved CCl(2,2) bar-negates generators 2 and 4, not the last two
        for alg in (ccl_interleaved(2), kasparov(1, 2)):
            with pytest.raises(ValueError, match="blocked CCl"):
                to_kasparov(alg.generator(3))
        with pytest.raises(ValueError, match="from_kasparov needs"):
            from_kasparov(ccl(1, 2).generator(3))

    def test_target_relations(self):
        target = kasparov(1, 1)
        eps, e = target.generator(1), target.generator(2)
        assert eps * eps == target.scalar(1)
        assert e * e == target.scalar(-1)
        assert e.bar() == e
        assert e.star() == -e
        assert eps.star() == eps

    def test_structure_preservation_random(self):
        rng = _rng(8, "kasparov")
        alg = ccl(2, 2)
        for _ in range(40):
            x = rand_multivector(rng, alg)
            y = rand_multivector(rng, alg)
            kx, ky = to_kasparov(x), to_kasparov(y)
            assert to_kasparov(x * y) == kx * ky
            assert to_kasparov(x.bar()) == kx.bar()
            assert to_kasparov(x.star()) == kx.star()
            assert from_kasparov(kx) == x


class TestVectorNorm:
    def test_unit_generator(self):
        assert vector_norm_sq(ccl(1, 0).generator(1)) == 1

    def test_three_four_five(self):
        alg = ccl(1, 1)
        assert vector_norm_sq(alg.vector([3, 4])) == 25

    def test_zero(self):
        assert vector_norm_sq(ccl(2, 0).zero()) == 0

    def test_non_vector_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            vector_norm_sq(alg.generator(1) * alg.generator(2))

    def test_negative_square_generator_rejected(self):
        # in C_(1,1), e2^2 = -1, so sum c_i^2 is not the scalar part of v*v
        alg = kasparov(1, 1)
        v = alg.vector([0, 1])
        assert (v * v).scalar_part() == -1
        with pytest.raises(ValueError, match="squares to -1"):
            vector_norm_sq(v)
        with pytest.raises(ValueError, match="squares to -1"):
            vector_norm_sq(alg.vector([3, 4]))
        w = alg.vector([3, 0])
        assert vector_norm_sq(w) == 9 == (w * w).scalar_part()


class TestGradedTensorSplit:
    def test_round_trip_single_generator(self):
        alg = ccl(2, 0)
        spec, t = graded_tensor_split(alg.generator(1), [1])
        assert list(t.terms) == [1]
        assert spec.merge(t) == alg.generator(1)

    def test_koszul_sign(self):
        alg = ccl(2, 0)
        spec, _ = graded_tensor_split(alg.zero(), [1])
        t_second = spec.split(alg.generator(2))   # 1 (x) e1'
        t_first = spec.split(alg.generator(1))    # e1 (x) 1
        product = t_second * t_first               # picks up (-1)^{1*1}
        merged = spec.merge(product)
        assert merged == alg.generator(2) * alg.generator(1)
        assert merged == -(alg.generator(1) * alg.generator(2))

    def test_product_correspondence_random(self):
        rng = _rng(9, "split")
        alg = ccl(3, 2)
        spec = None
        for _ in range(30):
            first = [k for k in range(1, 6) if rng.random() < 0.5]
            x = rand_multivector(rng, alg, 3)
            y = rand_multivector(rng, alg, 3)
            spec, tx = graded_tensor_split(x, first)
            ty = spec.split(y)
            assert spec.merge(tx) == x
            assert spec.merge(tx * ty) == x * y
            assert spec.merge(tx.bar()) == x.bar()
            assert spec.merge(tx.star()) == x.star()

    def test_inconsistent_partition_rejected(self):
        alg = ccl(2, 0)
        for first in ([3], [1, 1]):
            with pytest.raises(ValueError, match="inconsistent partition"):
                graded_tensor_split(alg.generator(1), first)

    def test_merge_refuses_foreign_element(self):
        alg = ccl(3, 0)
        spec, other = SplitSpec(alg, [1]), SplitSpec(alg, [2])
        for foreign in (alg.generator(1), other.split(alg.generator(1))):
            with pytest.raises(ValueError, match="does not live"):
                spec.merge(foreign)


def _inversion_sign(mask, positions):
    """Reference relabelling: (-1)^inversions of the relabelled index word."""
    word = [positions[i] for i in range(mask.bit_length()) if mask >> i & 1]
    inversions = sum(a > b for k, a in enumerate(word) for b in word[k + 1:])
    return (-1) ** inversions, sum(1 << p for p in word)


class TestRelabel:
    N = 6

    def test_identity(self):
        identity = list(range(self.N))
        for mask in range(1 << self.N):
            assert relabel(mask, identity) == (1, mask)

    @pytest.mark.parametrize("i", range(N))
    def test_transpositions(self, i):
        for j in range(self.N):
            positions = list(range(self.N))
            positions[i], positions[j] = j, i
            for mask in range(1 << self.N):
                assert relabel(mask, positions) == _inversion_sign(mask, positions)

    def test_random_permutations(self):
        rng = random.Random("relabel")
        for _ in range(20):
            positions = rng.sample(range(self.N), self.N)
            for mask in range(1 << self.N):
                assert relabel(mask, positions) == _inversion_sign(mask, positions)


class TestConventions:
    def test_generator_cap(self):
        with pytest.raises(ValueError):
            ccl(9, 8)

    def test_mask_outside_the_algebra_refused(self):
        # CCl(2,0) has the blades 0..3: mask 4 would print as e3 and -1 as e1
        alg = ccl(2, 0)
        for mask in (4, -1, 1 << 16):
            for build in (lambda: alg.from_terms({mask: 1}),
                          lambda: Multivector(alg, {0: 1, mask: 0})):
                with pytest.raises(ValueError, match=f"blade mask {mask} is outside 0..3"):
                    build()
        assert alg.from_terms({3: 1, 0: 2}) == parse_multivector("2 + e1e2", alg)


class TestExpressionGrammar:
    def test_spec_example(self):
        alg = ccl(3, 0)
        x = parse_multivector("3/4*e1e3 + i*e2 - 1/2", alg)
        assert x.coeff(0b101) == GaussianRational(Fraction(3, 4))
        assert x.coeff(0b010) == I
        assert x.coeff(0) == GaussianRational(Fraction(-1, 2))

    def test_case_and_whitespace_insensitive(self):
        alg = ccl(2, 0)
        assert parse_multivector("E1E2", alg) == parse_multivector("e1 e2", alg)

    def test_out_of_order_blades_canonicalized(self):
        alg = ccl(2, 0)
        assert parse_multivector("e2e1", alg) == -(alg.generator(1) * alg.generator(2))

    def test_round_trip(self):
        alg = ccl(2, 2)
        rng = _rng(13, "grammar")
        for _ in range(30):
            x = rand_multivector(rng, alg)
            assert parse_multivector(format_multivector(x), alg) == x

    def test_malformed_rejected(self):
        alg = ccl(2, 0)
        for bad in ("", "e0", "3//4*e1", "e1 +", "(e1", "foo"):
            with pytest.raises(ValueError):
                parse_multivector(bad, alg)

    def test_nesting_and_sign_chains(self):
        alg = ccl(2, 0)
        e1 = alg.generator(1)
        assert parse_multivector("(" * 100 + "e1" + ")" * 100, alg) == e1
        assert parse_multivector("-" * 3001 + "e1", alg) == -e1
        assert parse_multivector("e2*" + "-+" * 1500 + "e1", alg) == alg.generator(2) * e1
        with pytest.raises(ValueError, match="nests deeper"):
            parse_multivector("(" * 101 + "e1" + ")" * 101, alg)

    def test_format_terms_bare_blades_and_empty_sum(self):
        assert format_terms([(3, "1"), (1, "-1"), (0, "1")]) == "1 - e1 + e1e2"
        assert format_terms([(4, "1.0"), (2, "-1.0")]) == "-1.0*e2 + 1.0*e3"
        assert format_terms([(5, "(1 + i)"), (2, "-3/2*i")]) == "-3/2*i*e2 + (1 + i)*e1e3"
        assert format_terms([]) == "0"
        assert format_multivector(ccl(2, 0).zero()) == "0"

    def test_serialized_terms_sorted(self):
        alg = ccl(2, 0)
        x = parse_multivector("e1e2 + 2*e1", alg)
        masks = [entry[0] for entry in x.serialized_terms()]
        assert masks == sorted(masks)
