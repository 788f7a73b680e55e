"""The seeded generators of ``c2alg.verify`` against their Fraction forms.

The generators build integer numerators directly and draw integers through
``randrange``. The oracles below are the same generators written on
Fractions and ``randint`` (``rand_pin``'s as a product of Multivectors): for
every seed and signature each generator must give the same element (``terms``
and ``den``) and leave the random stream in the same state, so a drift in the
draws fails here before it can move a seeded report.
"""

import random
from fractions import Fraction

import pytest

from c2alg.clifford import ccl
from c2alg.scalars import GaussianRational, MultiPoly
from c2alg.verify import (rand_algebra, rand_coeff, rand_fraction, rand_multivector, rand_pin,
                          rand_polynomial, rand_real_vector, rational_phase,
                          rational_unit_vector)

SEEDS = range(200)
SIGNATURES = [(p, q) for p in range(7) for q in range(7 - p)]


def oracle_rand_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def oracle_rand_coeff(rng):
    roll = rng.random()
    if roll < 0.4:
        return GaussianRational(oracle_rand_fraction(rng))
    if roll < 0.8:
        return GaussianRational(0, oracle_rand_fraction(rng))
    return GaussianRational(oracle_rand_fraction(rng), oracle_rand_fraction(rng))


def oracle_rand_multivector(rng, alg, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = oracle_rand_coeff(rng)
        if c:
            terms[rng.randrange(1 << alg.dim)] = c
    return alg.from_terms(terms)


def oracle_rand_real_vector(rng, alg):
    return alg.vector([oracle_rand_fraction(rng) for _ in range(alg.dim)])


def oracle_rational_unit_vector(rng, alg):
    t = [oracle_rand_fraction(rng, 3, 3) for _ in range(alg.dim - 1)]
    s = sum((x * x for x in t), Fraction(0))
    den = 1 + s
    coords = [(1 - s) / den] + [2 * x / den for x in t]
    rng.shuffle(coords)
    coords = [c if rng.random() < 0.5 else -c for c in coords]
    return alg.vector(coords)


def oracle_rational_phase(rng):
    t = oracle_rand_fraction(rng, 3, 3)
    den = 1 + t * t
    return GaussianRational((1 - t * t) / den, 2 * t / den)


def oracle_rand_pin(rng, alg, max_factors=4, force_even=None, with_phase=True):
    """rand_pin's draws, as the product phase * v_1 * ... * v_k of Multivectors."""
    k = rng.randint(0, max_factors)
    if force_even is not None and k % 2 != force_even:
        k = k + 1 if k + 1 <= max_factors else k - 1
    vectors = [oracle_rational_unit_vector(rng, alg) for _ in range(k)]
    value = alg.scalar(oracle_rational_phase(rng) if with_phase else 1)
    for v in vectors:
        value = value * v
    return value, k & 1


def oracle_rand_polynomial(rng, nvars, max_terms=3, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(nvars)] += 1
        c = oracle_rand_fraction(rng)
        if c:
            terms[tuple(exp)] = c
    return MultiPoly(nvars, terms)


def _twin_rngs(seed, salt):
    return random.Random(f"{seed}:{salt}"), random.Random(f"{seed}:{salt}")


# (id, generator, oracle, extra arguments for an algebra)
ELEMENT_GENERATORS = [
    ("rand_multivector", rand_multivector, oracle_rand_multivector, lambda alg: ()),
    ("rand_multivector_dense", rand_multivector, oracle_rand_multivector,
     lambda alg: (1 << alg.dim,)),
    ("rand_real_vector", rand_real_vector, oracle_rand_real_vector, lambda alg: ()),
    ("rational_unit_vector", rational_unit_vector, oracle_rational_unit_vector, lambda alg: ()),
]


@pytest.mark.parametrize("name, generator, oracle, extra", ELEMENT_GENERATORS,
                         ids=[g[0] for g in ELEMENT_GENERATORS])
def test_element_generators_match_their_fraction_oracle(name, generator, oracle, extra):
    for p, q in SIGNATURES:
        if generator is rational_unit_vector and p + q == 0:
            continue  # no unit vector without generators
        alg = ccl(p, q)
        for seed in SEEDS:
            rng, oracle_rng = _twin_rngs(seed, name)
            got = generator(rng, alg, *extra(alg))
            want = oracle(oracle_rng, alg, *extra(alg))
            assert (got.terms, got.den) == (want.terms, want.den), (seed, alg.label)
            assert rng.getstate() == oracle_rng.getstate(), (seed, alg.label)


@pytest.mark.parametrize("generator, oracle", [
    (rand_fraction, oracle_rand_fraction),
    (rand_coeff, oracle_rand_coeff),
    (rational_phase, oracle_rational_phase),
], ids=["rand_fraction", "rand_coeff", "rational_phase"])
def test_scalar_generators_match_their_fraction_oracle(generator, oracle):
    for seed in SEEDS:
        rng, oracle_rng = _twin_rngs(seed, generator.__name__)
        for _ in range(5):
            got, want = generator(rng), oracle(oracle_rng)
            assert type(got) is type(want)
            assert got == want, seed
            if isinstance(got, GaussianRational):
                assert type(got.re) is type(got.im) is Fraction
        assert rng.getstate() == oracle_rng.getstate(), seed


@pytest.mark.parametrize("with_phase", [True, False])
@pytest.mark.parametrize("force_even", [0, 1, None])
def test_rand_pin_matches_its_product_oracle(force_even, with_phase):
    signatures = [sig for sig in SIGNATURES if sum(sig)]
    for seed in SEEDS:
        alg = ccl(*signatures[seed % len(signatures)])
        rng, oracle_rng = _twin_rngs(seed, "rand_pin")
        got = rand_pin(rng, alg, force_even=force_even, with_phase=with_phase)
        want, parity = oracle_rand_pin(oracle_rng, alg, force_even=force_even,
                                       with_phase=with_phase)
        assert (got.value.terms, got.value.den, got.parity) == (want.terms, want.den, parity)
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_rand_polynomial_matches_its_oracle():
    for seed in SEEDS:
        nvars = 1 + seed % 6
        rng, oracle_rng = _twin_rngs(seed, "rand_polynomial")
        for _ in range(5):
            assert rand_polynomial(rng, nvars) == oracle_rand_polynomial(oracle_rng, nvars), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_unit_vector_needs_a_generator():
    with pytest.raises(ValueError):
        rational_unit_vector(random.Random(0), ccl(0, 0))


@pytest.mark.parametrize("max_dim", [4, 6])
def test_rand_algebra_keeps_the_inline_signature_draw(max_dim):
    # the draw each suite wrote out before ``rand_algebra`` held it
    for seed in SEEDS:
        rng, oracle_rng = _twin_rngs(seed, "rand_algebra")
        for _ in range(5):
            p = oracle_rng.randint(0, max_dim)
            q = oracle_rng.randint(0, max_dim - p)
            if p + q == 0:
                p = 1
            assert rand_algebra(rng, max_dim) is ccl(p, q)
        assert rng.getstate() == oracle_rng.getstate(), seed
