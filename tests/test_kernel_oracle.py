"""The exact sign kernels against term-by-term references on ``blade_product``.

Products, conjugations and the Kasparov isomorphism read blade signs from the
memo of ``CliffordAlgebra.flip`` (``CliffordAlgebra.flips``) or from sign
bits, and the exact twisted adjoint builds its rows e_k g and g e_k from the
same memo. Each reference below multiplies one pair of basis blades at a time
with ``CliffordAlgebra.blade_product`` and sums GaussianRationals, so it shares
no code with those kernels. One seeded sweep covers the blocked, Kasparov and
interleaved algebras and one joined tensor-split algebra, up to 8 generators.
"""

import random
from fractions import Fraction

import pytest

from c2alg.clifford import (Multivector, SplitSpec, ccl, ccl_interleaved, from_kasparov,
                            kasparov, to_kasparov)
from c2alg.pin_spin import PinElement, twisted_adjoint
from c2alg.scalars import GaussianRational

ALGEBRAS = [ccl(0, 0), ccl(1, 0), ccl(2, 1), ccl(0, 3), ccl(3, 3), ccl(5, 3),
            kasparov(1, 1), kasparov(2, 2), kasparov(0, 4), kasparov(4, 4), kasparov(3, 5),
            ccl_interleaved(1), ccl_interleaved(2), ccl_interleaved(4),
            SplitSpec(kasparov(3, 3), [5, 2, 6]).joined]


def coefficients(x: Multivector) -> dict:
    return {m: x.coeff(m) for m in x.terms}


def generators_of(mask: int) -> list:
    """Generator masks of a blade in increasing index order."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def word_sign(alg, masks) -> int:
    """Sign of the product of the given generator masks, one blade_product at a time."""
    sign, acc = 1, 0
    for m in masks:
        s, acc = alg.blade_product(acc, m)
        sign *= s
    return sign


def ref_mul(x: dict, y: dict, alg) -> dict:
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            sign, mask = alg.blade_product(m1, m2)
            out[mask] = out.get(mask, GaussianRational.ZERO) + c1 * c2 * sign
    return {m: c for m, c in out.items() if c}


def ref_bar(x: dict, alg) -> dict:
    """bar(c e_m) = conj(c) times bar(e_i) for each generator, in order."""
    out = {}
    for m, c in x.items():
        sign = 1
        for g in generators_of(m):
            sign *= alg.bar_signs[g.bit_length() - 1]
        out[m] = c.conjugate() * sign
    return out


def ref_star(x: dict, alg) -> dict:
    """star(c e_i1 ... e_ik) = conj(c) e_ik* ... e_i1*, the reversed word multiplied out."""
    out = {}
    for m, c in x.items():
        gens = generators_of(m)[::-1]
        sign = word_sign(alg, gens)
        for g in gens:
            sign *= alg.star_signs[g.bit_length() - 1]
        out[m] = c.conjugate() * sign
    return out


def ref_kasparov(x: dict, source, target, w_image) -> dict:
    """Send v_i to the i-th generator and w_j to w_image times it, term by term: the
    blade e_m, its generators in order, goes to the product of their images."""
    out = {}
    for m, c in x.items():
        gens = generators_of(m)
        value = c * word_sign(target, gens)
        for g in gens:
            if g.bit_length() > source.p:
                value = value * w_image
        out[m] = value
    return out


def ref_twisted_adjoint(g: PinElement) -> tuple:
    """Rows of rho(g): column k is (-1)^|g| g e_k star(g), read at the grade-1 blades."""
    alg = g.algebra
    x = coefficients(g.value)
    inverse = ref_star(x, alg)
    sign = -1 if g.parity else 1
    cols = []
    for k in range(alg.dim):
        image = ref_mul(ref_mul(x, {1 << k: GaussianRational(sign)}, alg), inverse, alg)
        assert set(image) <= {1 << i for i in range(alg.dim)}
        assert all(c.im == 0 for c in image.values())
        cols.append([image.get(1 << i, GaussianRational.ZERO).re for i in range(alg.dim)])
    return tuple(zip(*cols))


def rand_coeff(rng) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7, 12)))
    return GaussianRational(part(), part() if rng.random() < 0.6 else 0)


def rand_element(rng, alg) -> Multivector:
    size = 1 << alg.dim
    return Multivector(alg, {rng.randrange(size): rand_coeff(rng)
                             for _ in range(rng.randint(0, min(size, 7)))})


def unit_vector(rng, alg, support) -> list:
    """(2 w_1 w - |w|^2 e_1) / |w|^2 on the given generator indices: a rational unit vector."""
    w = [rng.randint(-4, 4) for _ in support]
    w[0] = w[0] or 1
    norm = sum(a * a for a in w)
    coords = [0] * alg.dim
    for i, a in zip(support, w):
        coords[i] = Fraction(2 * w[0] * a, norm)
    coords[support[0]] -= 1
    return coords


def rand_pin(rng, alg) -> PinElement:
    """A phase times unit vectors on positive-square generators, times one generator
    that squares to -1 when the algebra has one (e_j e_j* = 1 there as well)."""
    support = [i for i, s in enumerate(alg.squares) if s > 0]
    a, b = rng.randint(-3, 3), rng.randint(1, 3)
    phase = GaussianRational(Fraction(b * b - a * a, a * a + b * b),
                             Fraction(2 * a * b, a * a + b * b))
    vectors = [unit_vector(rng, alg, rng.sample(support, rng.randint(1, len(support))))
               for _ in range(rng.randint(0, 3) if support else 0)]
    g = PinElement.from_factors(alg, vectors, phase)
    ref = {0: phase}
    for v in vectors:
        ref = ref_mul(ref, {1 << i: GaussianRational(c) for i, c in enumerate(v) if c}, alg)
    assert coefficients(g.value) == ref
    negative = [i for i, s in enumerate(alg.squares) if s < 0]
    if negative and rng.random() < 0.7:
        g = g * PinElement(alg.generator(rng.choice(negative) + 1))
    return g


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.label)
def test_kernels_match_blade_product_references(alg):
    rng = random.Random(f"oracle:{alg.label}")
    for _ in range(12):
        x, y = rand_element(rng, alg), rand_element(rng, alg)
        cx, cy = coefficients(x), coefficients(y)
        # == compares the stored numerators and den, so the canonical form is checked too
        assert x * y == Multivector(alg, ref_mul(cx, cy, alg))
        assert x.bar() == Multivector(alg, ref_bar(cx, alg))
        assert x.star() == Multivector(alg, ref_star(cx, alg))
        assert -x == Multivector(alg, {m: -c for m, c in cx.items()})
        i = GaussianRational.I
        if alg is ccl(alg.p, alg.q):
            k = kasparov(alg.p, alg.q)
            assert to_kasparov(x) == Multivector(k, ref_kasparov(cx, alg, k, i))
        if alg is kasparov(alg.p, alg.q):
            c = ccl(alg.p, alg.q)
            assert from_kasparov(x) == Multivector(c, ref_kasparov(cx, alg, c, -i))
    if alg.dim:
        for _ in range(4):
            g = rand_pin(rng, alg)
            assert twisted_adjoint(g).rows == ref_twisted_adjoint(g)
