"""The seeded generators of ``c2alg.verify`` against their Fraction forms.

The generators build integer numerators directly. The oracles below are the
same generators written on Fractions: for every seed and signature each
generator must give the same element (``terms`` and ``den``) and leave the
random stream in the same state, so a drift in the draws fails here before
it can move a seeded report.
"""

import random
from fractions import Fraction

import pytest

from c2alg.clifford import ccl
from c2alg.scalars import GaussianRational
from c2alg.verify import (rand_algebra, rand_coeff, rand_fraction, rand_multivector,
                          rand_real_vector, rational_phase, rational_unit_vector)

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
