"""``MultiPoly.compose_linear`` and ``substitute`` against their Fraction forms.

``compose_linear`` clears denominators and substitutes integer linear forms;
``iv_model_action`` feeds it the integer rows of rho(g)^T. The oracles below
are the Fraction implementations they replaced: one ``MultiPoly`` per linear
form, powers by ``**`` and one ``MultiPoly`` sum per term. Every polynomial
and matrix must give the same polynomial both ways.
"""

import random
from fractions import Fraction

import pytest

from c2alg.clifford import ccl
from c2alg.pin_spin import iv_model_action, twisted_adjoint
from c2alg.scalars import MultiPoly
from c2alg.verify import rand_multivector, rand_pin

SEEDS = range(40)
SIGNATURES = [(p, q) for p in range(7) for q in range(7 - p) if p + q]


def oracle_substitute(f, replacements):
    new_nvars = replacements[0].nvars if replacements else 0
    out = MultiPoly.zero(new_nvars)
    for exp, c in f.terms.items():
        term = MultiPoly.constant(new_nvars, c)
        for i, e in enumerate(exp):
            if e:
                term = term * replacements[i] ** e
        out = out + term
    return out


def oracle_compose_linear(f, matrix):
    n = f.nvars
    reps = [
        MultiPoly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(matrix[k][i])
                      for i in range(n) if matrix[k][i]})
        for k in range(n)
    ]
    return oracle_substitute(f, reps)


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def rand_poly(rng, nvars, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            if nvars:
                exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = rand_fraction(rng)
    return MultiPoly(nvars, terms)


def rand_matrix(rng, n):
    return [[rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(n)]


class TestAgainstFractionOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_rational_matrices(self, seed):
        rng = random.Random(seed)
        for nvars in range(7):
            f = rand_poly(rng, nvars)
            M = rand_matrix(rng, nvars)
            assert f.compose_linear(M) == oracle_compose_linear(f, M)

    @pytest.mark.parametrize("p,q", SIGNATURES)
    def test_inverse_twisted_adjoint(self, p, q):
        rng = random.Random(100 * p + q)
        alg = ccl(p, q)
        for _ in range(4):
            g = rand_pin(rng, alg, 4)
            f = rand_poly(rng, alg.dim)
            M = twisted_adjoint(g).transpose().rows
            expected = oracle_compose_linear(f, M)
            assert f.compose_linear(M) == expected
            x = rand_multivector(rng, alg, 2)
            assert iv_model_action(g, x, f) == (g.value * x, expected)

    @pytest.mark.parametrize("nvars", range(7))
    def test_identity_permutation_and_zero_rows(self, nvars):
        rng = random.Random(nvars)
        f = rand_poly(rng, nvars)
        identity = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        assert f.compose_linear(identity) == f
        perm = list(range(nvars))
        rng.shuffle(perm)
        P = [[Fraction(int(perm[k] == i)) for i in range(nvars)] for k in range(nvars)]
        assert f.compose_linear(P) == oracle_compose_linear(f, P)
        for k in range(nvars):
            Z = [row if j != k else [Fraction(0)] * nvars
                 for j, row in enumerate(rand_matrix(rng, nvars))]
            assert f.compose_linear(Z) == oracle_compose_linear(f, Z)
        zero = [[0] * nvars for _ in range(nvars)]
        assert f.compose_linear(zero) == MultiPoly.constant(nvars, f.coeff((0,) * nvars))

    def test_one_denominator_per_degree(self):
        # x^2 + x/3 under x -> x/2: each degree keeps its own power of 2
        f = MultiPoly(1, {(2,): Fraction(1), (1,): Fraction(1, 3)})
        assert f.compose_linear([[Fraction(1, 2)]]) == MultiPoly(
            1, {(2,): Fraction(1, 4), (1,): Fraction(1, 6)})

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substitute_matches_the_term_by_term_sum(self, seed):
        rng = random.Random(seed)
        for nvars in range(4):
            f = rand_poly(rng, nvars, max_degree=3)
            reps = [rand_poly(rng, 3, max_degree=2, max_terms=3) for _ in range(nvars)]
            assert f.substitute(reps) == oracle_substitute(f, reps)


class TestShape:
    @pytest.mark.parametrize("matrix", [
        [[1, 0]],
        [[1, 0], [0, 1], [0, 0]],
        [[1, 0], [0]],
        [[1, 0, 0], [0, 1, 0]],
    ])
    def test_shape_mismatch_rejected(self, matrix):
        f = MultiPoly(2, {(1, 1): Fraction(1)})
        with pytest.raises(ValueError, match="matrix shape must match variable count"):
            f.compose_linear(matrix)
