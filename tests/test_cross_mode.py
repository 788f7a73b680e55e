"""Exact Spin/Spin^c elements as oracles for the numeric lifts and twisted adjoint.

A complex reflection H_u = 1 - 2 u u* / |u|^2 with u in Q(i)^n realifies to
the half turn in the real plane spanned by u_R and (iu)_R, and
g = u_R (iu)_R / |u|^2 is an exact Spin element of ``ccl_interleaved(n)``
over it: rho(g) = realify(H_u). Products of such elements give exact lifts
of products of reflections, against which the float paths are checked. The
float element is built from the same factors, u_R / |u| and (iu)_R / |u|.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from c2alg.clifford import ccl_interleaved
from c2alg.linalg import realify
from c2alg.pin_spin import (DensePin, PinElement, phi_lift, rho_residual, spin_lift,
                            twisted_adjoint)
from c2alg.scalars import GaussianRational

# complex dimension n -> draws; ccl_interleaved(8) has 16 generators, MAX_GENERATORS
DRAWS = {1: 3, 2: 3, 3: 3, 4: 3, 8: 1}


def _rational_vector(rng, n):
    while True:
        u = [GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(n)]
        if any(u):
            return u


def _reflection(rng, n):
    """(H_u as a complex matrix, exact Spin element over realify(H_u), its float factors)."""
    alg = ccl_interleaved(n)
    u = _rational_vector(rng, n)
    norm_sq = sum(c.re * c.re + c.im * c.im for c in u)
    u_r = [x for c in u for x in (c.re, c.im)]
    iu_r = [x for c in u for x in (-c.im, c.re)]
    g = PinElement((alg.vector(u_r) * alg.vector(iu_r)).scale(GaussianRational(1 / norm_sq)))
    norm = math.sqrt(norm_sq)
    factors = [np.array([float(x) for x in v]) / norm for v in (u_r, iu_r)]
    uc = np.array([complex(c) for c in u])
    H = np.eye(n) - 2 * np.outer(uc, uc.conj()) / float(norm_sq)
    return H, g, factors


def _cases():
    rng = random.Random("cross-mode")
    for n, draws in DRAWS.items():
        for _ in range(draws):
            H1, g1, f1 = _reflection(rng, n)
            H2, g2, f2 = _reflection(rng, n)
            yield n, H1, g1, f1
            yield n, H1 @ H2, g1 * g2, f1 + f2


def _proportionality(numeric, exact):
    """(lambda, residual) with numeric ~ lambda * exact, lambda read at exact's largest blade."""
    values = exact.value.to_dense()
    mask = int(np.argmax(np.abs(values)))
    lam = numeric.values[mask] / values[mask]
    return lam, np.max(np.abs(numeric.values - lam * values))


@pytest.mark.parametrize("n, U, g, factors", [pytest.param(*case, id=f"{case[0]}-U{i}-g{i}")
                                               for i, case in enumerate(_cases())])
class TestExactOracle:
    def test_spin_lift_of_exact_rho(self, n, U, g, factors):
        R = twisted_adjoint(g).as_numpy()
        assert np.max(np.abs(R - realify(U))) <= 1e-12
        lifted = spin_lift(R)
        lam, res = _proportionality(lifted, g)
        assert abs(abs(lam.real) - 1) <= 1e-12 and abs(lam.imag) <= 1e-12
        assert res <= 1e-12
        assert rho_residual(lifted, R) <= 1e-12

    def test_phi_lift_is_phase_times_exact(self, n, U, g, factors):
        lifted = phi_lift(U)
        lam, res = _proportionality(lifted, g)
        assert abs(lam * lam - np.linalg.det(U)) <= 1e-12
        assert res <= 1e-12

    def test_numeric_twisted_adjoint_matches_exact(self, n, U, g, factors):
        exact = twisted_adjoint(g).as_numpy()
        numeric = twisted_adjoint(DensePin(g.algebra, factors))
        assert isinstance(numeric, np.ndarray)
        assert np.max(np.abs(numeric - exact)) <= 1e-12
