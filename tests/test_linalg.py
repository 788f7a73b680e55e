import inspect
import warnings

import numpy as np
import pytest

from c2alg.linalg import (fixed_point_retraction, is_unitary, matrix_from_json,
                          matrix_to_json, realify, symmetric_unitary_sqrt, unitary_eigh)
from c2alg.pin_spin import householder_factors, phi_lift, rho_residual, spin_lift
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

    def test_huge_entries_refused_without_overflow(self):
        # no unitary matrix has an entry above 1, so M*M is never formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_unitary(1e308 * np.eye(2))


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
        # the parse of each value is cached, but a refusal is not: it recurs
        with pytest.raises(ValueError, match="C2ALG_TOL must be a positive finite number"):
            default_tol()
        monkeypatch.setenv("C2ALG_TOL", "1e-4")
        assert default_tol() == 1e-4


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


_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
_SHAPE_2 = r"target matrix must have shape \(2, 2\)"

# name: (routine of one matrix, message for 1-D input, message for a non-square
# matrix or None if it is accepted, message for a NaN entry or None if it
# propagates, real-only)
_READERS = {
    "spin_lift": (spin_lift, "expected a matrix", "non-square input",
                  "matrix entries must be finite", True),
    "householder_factors": (householder_factors, "expected a matrix", "non-square input",
                            "matrix entries must be finite", True),
    "rho_residual": (lambda M: rho_residual(spin_lift(np.eye(2)), M), _SHAPE_2, _SHAPE_2,
                     None, True),
    "phi_lift": (phi_lift, "expected a matrix", "non-square input",
                 "matrix entries must be finite", False),
    "realify": (realify, "expected a matrix", "non-square input",
                "matrix entries must be finite", False),
    "is_unitary": (is_unitary, "expected a matrix", "non-square input",
                   "matrix entries must be finite", False),
    "unitary_eigh": (unitary_eigh, "expected a matrix", "non-square input",
                     "matrix entries must be finite", False),
    "symmetric_unitary_sqrt": (symmetric_unitary_sqrt, "expected a matrix", "non-square input",
                               "matrix entries must be finite", False),
    # a frame is an N x n isometry, so a non-square one is read
    "fixed_point_retraction": (lambda M: fixed_point_retraction(M, np.ones(2)),
                               "expected a matrix", None, "matrix entries must be finite", False),
}
_REAL_ONLY = [name for name, entry in _READERS.items() if entry[4]]


class TestMatrixReader:
    """Every routine reads its matrix through one check, with the same messages."""

    @pytest.mark.parametrize("name", _READERS)
    def test_one_dimensional_input_refused(self, name):
        routine, message = _READERS[name][:2]
        with pytest.raises(ValueError, match=message):
            routine(np.ones(2))

    @pytest.mark.parametrize("name", _READERS)
    def test_non_square_input(self, name):
        routine, _, message = _READERS[name][:3]
        frame = np.eye(3)[:, :2]
        if message is None:
            routine(frame)
        else:
            with pytest.raises(ValueError, match=message):
                routine(frame)

    @pytest.mark.parametrize("name", _READERS)
    def test_nan_entry(self, name):
        routine, message = _READERS[name][0], _READERS[name][3]
        M = np.eye(2)
        M[0, 1] = np.nan
        if message is None:
            assert np.isnan(routine(M))
        else:
            with pytest.raises(ValueError, match=message):
                routine(M)

    @pytest.mark.parametrize("name", _READERS)
    def test_imaginary_part(self, name):
        # i * I is symmetric and unitary: a complex routine reads it, a real-only one
        # refuses it with a ValueError instead of dropping it with a ComplexWarning
        routine, real_only = _READERS[name][0], _READERS[name][4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if real_only:
                with pytest.raises(ValueError, match="expected a real matrix"):
                    routine(1j * np.eye(2))
            else:
                routine(1j * np.eye(2))

    @pytest.mark.parametrize("fiber, message", [
        (5, "fiber must be a vector or a matrix"),
        (np.ones((2, 2, 2)), "fiber must be a vector or a matrix"),
        (np.array([1.0, np.nan]), "matrix entries must be finite"),
    ], ids=["scalar", "three-dimensional", "nan"])
    def test_retraction_fiber(self, fiber, message):
        # the fiber of fixed_point_retraction is read like its frame: finite, 1-D or 2-D
        with pytest.raises(ValueError, match=message):
            fixed_point_retraction(np.eye(2), fiber)

    @pytest.mark.parametrize("name", _REAL_ONLY)
    def test_zero_imaginary_part_read_as_real(self, name):
        routine = _READERS[name][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read = routine(_ROTATION.astype(complex))
        expected = routine(_ROTATION)
        if name == "spin_lift":
            read, expected = read.values, expected.values
        assert np.array_equal(read, expected)
