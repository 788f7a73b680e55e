import inspect
from fractions import Fraction

import numpy as np
import pytest

from c2alg.linalg import (complexify_reassemble, complexify_split,
                          fixed_point_retraction, is_unitary, matrix_from_json,
                          matrix_to_json, realify, symmetric_unitary_sqrt)
from c2alg.scalars import GaussianRational
from c2alg.verify import random_special_orthogonal, random_unitary

RNG = np.random.default_rng(20240817)


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(3), 1e-12)

    def test_rotation(self):
        assert is_unitary([[0, -1], [1, 0]], 1e-12)

    def test_non_isometry(self):
        assert not is_unitary([[2, 0], [0, 1]], 1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))


class TestRealify:
    def test_scalar_one(self):
        assert np.allclose(realify([[1]]), np.eye(2))

    def test_multiplication_by_i(self):
        assert np.allclose(realify([[1j]]), [[0, -1], [1, 0]])

    def test_orthogonal_det_one(self):
        U = random_unitary(RNG, 3)
        R = realify(U)
        assert np.max(np.abs(R.T @ R - np.eye(6))) < 1e-12
        assert abs(np.linalg.det(R) - 1) < 1e-12

    def test_homomorphism(self):
        for _ in range(20):
            U = random_unitary(RNG, 3)
            V = random_unitary(RNG, 3)
            assert np.max(np.abs(realify(U @ V) - realify(U) @ realify(V))) < 1e-10

    def test_conjugation_relation(self):
        U = random_unitary(RNG, 3)
        D = np.diag([1 if i % 2 == 0 else -1 for i in range(6)])
        assert np.max(np.abs(realify(np.conj(U)) - D @ realify(U) @ D)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            realify([[2]])


def random_symmetric_unitary(rng, n):
    O = random_special_orthogonal(rng, n)
    thetas = rng.uniform(-np.pi, np.pi, size=n)
    return (O * np.exp(1j * thetas)) @ O.T


class TestSymmetricUnitarySqrt:
    def test_identity(self):
        res = symmetric_unitary_sqrt(np.eye(3))
        assert np.max(np.abs(res.matrix - np.eye(3))) < 1e-12

    def test_principal_root_of_i(self):
        res = symmetric_unitary_sqrt(np.array([[1j]]))
        assert abs(res.matrix[0, 0] - np.exp(1j * np.pi / 4)) < 1e-12
        assert np.max(np.abs(res.matrix @ res.matrix - np.array([[1j]]))) < 1e-12

    def test_branch_cut_maps_to_i(self):
        res = symmetric_unitary_sqrt(-np.eye(2))
        assert np.max(np.abs(res.matrix - 1j * np.eye(2))) < 1e-12
        assert res.near_branch_cut

    def test_random_construct_and_check(self):
        # module invariant: 200 random symmetric unitaries, n <= 6
        rng = np.random.default_rng(7)
        worst = 0.0
        for i in range(200):
            n = 1 + (i % 6)
            U = random_symmetric_unitary(rng, n)
            res = symmetric_unitary_sqrt(U)
            worst = max(worst, *res.residuals.values())
        assert worst < 1e-9

    def test_clustered_real_parts(self):
        # conjugate angles share cos(theta), and near-conjugate ones
        # (1.5 and -1.5 + delta) nearly do, which defeats splitting the
        # spectrum by the real part first
        rng = np.random.default_rng(11)
        spectra = [[0.7, -0.7, 2.1, -2.1]] + [[1.5, -1.5 + d, 0.3, 2.0]
                                              for d in (1e-10, 1e-8, 1e-6)]
        for thetas in spectra:
            for _ in range(20):
                O = random_special_orthogonal(rng, 4)
                U = (O * np.exp(1j * np.array(thetas))) @ O.T
                res = symmetric_unitary_sqrt(U)
                assert max(res.residuals.values()) < 1e-9, thetas

    def test_fully_degenerate_eigenvalue(self):
        rng = np.random.default_rng(12)
        O = random_special_orthogonal(rng, 3)
        U = (O * np.exp(1j * 0.4)) @ O.T
        res = symmetric_unitary_sqrt(U)
        assert max(res.residuals.values()) < 1e-10

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_unitary_sqrt(np.array([[0, -1], [1, 0]], dtype=complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            symmetric_unitary_sqrt(np.diag([2.0, 1.0]))


def _g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def _rational_unit(rng, n):
    """Rational point on the unit sphere (stereographic parametrization)."""
    t = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]
    s = sum((x * x for x in t), Fraction(0))
    den = 1 + s
    return [(1 - s) / den] + [2 * x / den for x in t]


def random_rational_orthogonal(rng, n):
    """Product of two rational Householder reflections: exactly orthogonal."""
    M = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2):
        u = _rational_unit(rng, n)
        M = [[M[i][j] - 2 * u[i] * sum(u[k] * M[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
    return M


def _rational_circle(rng):
    t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    den = 1 + t * t
    return GaussianRational((1 - t * t) / den, 2 * t / den)


class TestComplexifySplit:
    def test_fixed_vector_splits_trivially(self):
        ident = [[_g(1), _g(0)], [_g(0), _g(1)]]
        v = [_g(2), _g(Fraction(1, 3))]
        v1, v2 = complexify_split(v, ident)
        assert v1 == v and all(x == _g(0) for x in v2)

    def test_imaginary_unit_under_conjugation(self):
        v1, v2 = complexify_split([GaussianRational.I], [[_g(1)]])
        assert v1 == [_g(0)] and v2 == [_g(1)]

    def test_round_trip_random_involutions(self):
        # involutions C = P diag(lambda) P^T with rational orthogonal P and
        # unit-circle lambdas satisfy C conj(C) = I exactly
        import random
        rng = random.Random("split-oracle")
        n = 3
        for _ in range(25):
            P = random_rational_orthogonal(rng, n)
            lam = [_rational_circle(rng) for _ in range(n)]
            C = [[sum((lam[k] * (P[i][k] * P[j][k]) for k in range(n)),
                      GaussianRational.ZERO) for j in range(n)] for i in range(n)]
            v = [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                 for _ in range(n)]
            v1, v2 = complexify_split(v, C)
            assert complexify_reassemble(v1, v2) == v
            # both parts are fixed by the involution
            for part in (v1, v2):
                conj = [sum((C[i][j] * part[j].conjugate() for j in range(n)),
                            GaussianRational.ZERO) for i in range(n)]
                assert conj == part

    def test_multiplication_by_i_is_valid_involution(self):
        # i * conj(i * conj(v)) = v, so this involution is accepted
        v1, v2 = complexify_split([_g(1)], [[GaussianRational.I]])
        assert complexify_reassemble(v1, v2) == [_g(1)]

    def test_involution_axiom_violation_rejected(self):
        with pytest.raises(ValueError):
            complexify_split([_g(1)], [[_g(2)]])


class TestFixedPointRetraction:
    def test_fixed_instance_stays_put(self):
        w = np.linalg.qr(RNG.standard_normal((5, 2)))[0]
        z = RNG.standard_normal(2)
        r = fixed_point_retraction(w, z)
        assert max(r.residuals.values()) < 1e-12

    def test_randomized_orbit(self):
        w = np.linalg.qr(RNG.standard_normal((6, 3)))[0]
        z = RNG.standard_normal(3)
        U = random_unitary(RNG, 3)
        r = fixed_point_retraction(w @ U.conj().T, U @ z)
        assert r.residuals["frame_imag"] < 1e-10
        assert r.residuals["fiber_imag"] < 1e-10
        assert r.residuals["orbit_frame"] < 1e-9
        assert r.residuals["orbit_fiber"] < 1e-9

    def test_branch_cut_orbit(self):
        # the derived symmetric unitary has eigenvalue -1; its root is i
        w = np.linalg.qr(RNG.standard_normal((4, 1)))[0]
        z = RNG.standard_normal(1)
        V = np.array([[1j]])
        r = fixed_point_retraction(w @ V.conj().T, V @ z)
        assert r.sqrt.near_branch_cut
        assert r.residuals["frame_imag"] < 1e-12
        assert r.residuals["orbit_frame"] < 1e-12

    def test_unfixed_orbit_rejected(self):
        x = np.linalg.qr(RNG.standard_normal((4, 2))
                         + 1j * RNG.standard_normal((4, 2)))[0]
        with pytest.raises(ValueError):
            fixed_point_retraction(x, np.zeros(2))


class TestToleranceOverride:
    def test_env_var_overrides_default(self, monkeypatch):
        from c2alg.linalg import default_tol
        monkeypatch.setenv("C2ALG_TOL", "1e-3")
        assert default_tol() == 1e-3
        noisy = np.eye(2) + 1e-6
        assert is_unitary(noisy)
        monkeypatch.delenv("C2ALG_TOL")
        assert default_tol() == 1e-9
        assert not is_unitary(noisy)


    def test_no_per_call_tolerance(self):
        # C2ALG_TOL is the only override; only the threshold predicate is_unitary takes a tol
        import c2alg
        from c2alg import linalg, pin_spin
        public = {name: getattr(c2alg, name) for name in c2alg.__all__}
        for module in (pin_spin, linalg):
            public.update((name, obj) for name, obj in vars(module).items()
                          if not name.startswith("_")
                          and getattr(obj, "__module__", None) == module.__name__)
        members = dict(public)
        for name, obj in public.items():
            if inspect.isclass(obj):
                members.update((f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                               if not attr.startswith("_"))
        with_tol = {name for name, obj in members.items()
                    if callable(obj) and "tol" in inspect.signature(obj).parameters}
        assert with_tol == {"is_unitary"}

    def test_stale_positional_tolerance_rejected(self):
        from c2alg.pin_spin import OrthogonalAction, spin_lift
        with pytest.raises(TypeError):
            spin_lift(np.eye(2), 1e-9)
        with pytest.raises(ValueError, match="OrthogonalAction holds exact data"):
            OrthogonalAction(((1.0, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "0"])
    def test_invalid_values_rejected(self, monkeypatch, value):
        from c2alg.linalg import default_tol
        monkeypatch.setenv("C2ALG_TOL", value)
        with pytest.raises(ValueError, match="C2ALG_TOL must be a positive finite number"):
            default_tol()


class TestMatrixJson:
    def test_round_trip(self):
        M = np.array([[1 + 2j, 0], [0.5, -1j]])
        assert np.allclose(matrix_from_json(matrix_to_json(M)), M)

    def test_exact_string_entries(self):
        obj = {"rows": 1, "cols": 1, "entries": [[["1/2", "-3/4"]]]}
        assert matrix_from_json(obj)[0, 0] == 0.5 - 0.75j

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 1, "entries": [[[1, 0]]]})

    @pytest.mark.parametrize("entry", [[float("nan"), 0], [0, float("inf")], [10 ** 400, 0]])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[entry]]})
