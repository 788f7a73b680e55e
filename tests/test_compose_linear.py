"""``MultiPoly.compose_linear`` and ``substitute`` against their Fraction forms.

``substitute`` and ``compose_linear`` share one engine: it clears
denominators and expands integer forms on packed monomials.
``iv_model_action`` feeds ``compose_linear`` the integer rows of rho(g)^T
with their denominator. The oracles below are the Fraction implementations
the engine replaced: one ``MultiPoly`` per linear form, powers by ``**`` and
one ``MultiPoly`` sum per term. Every polynomial and matrix must give the
same polynomial both ways.
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
            M = tuple(zip(*twisted_adjoint(g).rows))
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substitute_denominators_and_mixed_degrees(self, seed):
        # replacements up to degree 3 need a packing base wider than deg f + 1
        rng = random.Random(1000 + seed)
        for nvars in range(1, 4):
            f = rand_poly(rng, nvars, max_degree=4)
            reps = [rand_poly(rng, 2, max_degree=3, max_terms=4) for _ in range(nvars)]
            assert f.substitute(reps) == oracle_substitute(f, reps)

    def test_substitute_keeps_one_denominator_per_degree(self):
        # x^2 + x/3 under x -> y^2/2 + 1/5
        f = MultiPoly(1, {(2,): Fraction(1), (1,): Fraction(1, 3)})
        r = MultiPoly(1, {(2,): Fraction(1, 2), (0,): Fraction(1, 5)})
        assert f.substitute([r]) == MultiPoly(1, {
            (4,): Fraction(1, 4), (2,): Fraction(1, 5) + Fraction(1, 6),
            (0,): Fraction(1, 25) + Fraction(1, 15)})

    @pytest.mark.parametrize("seed", range(10))
    def test_constant_replacements_into_no_variables(self, seed):
        rng = random.Random(2000 + seed)
        f = rand_poly(rng, 3)
        values = [rand_fraction(rng) for _ in range(3)]
        reps = [MultiPoly.constant(0, v) for v in values]
        value = sum((c * values[0] ** e0 * values[1] ** e1 * values[2] ** e2
                     for (e0, e1, e2), c in f.terms.items()), Fraction(0))
        assert f.substitute(reps) == oracle_substitute(f, reps) == MultiPoly.constant(0, value)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_replacement(self, seed):
        rng = random.Random(3000 + seed)
        f = rand_poly(rng, 3)
        reps = [rand_poly(rng, 2, max_degree=2), MultiPoly.zero(2), rand_poly(rng, 2)]
        expected = oracle_substitute(f, reps)
        assert f.substitute(reps) == expected
        kept = MultiPoly(3, {e: c for e, c in f.terms.items() if not e[1]})
        assert expected == kept.substitute(reps)

    def test_zero_polynomial(self):
        reps = [MultiPoly.variable(2, 0) + Fraction(1, 3), MultiPoly.constant(2, 7)]
        assert MultiPoly.zero(2).substitute(reps) == MultiPoly.zero(2)
        assert MultiPoly.zero(3).compose_linear([[Fraction(1, 2)] * 3] * 3) == MultiPoly.zero(3)
        assert MultiPoly.zero(0).substitute([]) == MultiPoly.zero(0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer_rows_over_den(self, seed):
        rng = random.Random(4000 + seed)
        for nvars in range(7):
            f = rand_poly(rng, nvars)
            den = rng.randint(1, 30)
            rows = [[rng.randint(-20, 20) for _ in range(nvars)] for _ in range(nvars)]
            scaled = [[Fraction(x, den) for x in row] for row in rows]
            assert f.compose_linear(rows, den) == f.compose_linear(scaled)
            assert f.compose_linear(scaled, 3) == oracle_compose_linear(
                f, [[x / 3 for x in row] for row in scaled])


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
