"""Matrix kernels: realification, unitary eigendecomposition, symmetric-unitary
square roots, fixed-point retraction.

Eigenvalue-based routines work in double precision against one tolerance,
``default_tol()`` (defined in ``scalars``): 1e-9, or the ``C2ALG_TOL``
environment variable, which is the only override. Each routine reads it where
it compares (``default_tol`` caches only the parse of each value).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .scalars import default_tol, rational_from_string


def _read_matrix(M, dtype=complex, *, square: bool = True, finite: bool = True) -> np.ndarray:
    """The one reader of a caller's matrix: a 2-D ``dtype`` array, square unless told not.

    ``dtype=float`` is a real read: it refuses a nonzero imaginary part and
    takes the real part of a complex array whose imaginary part is zero.
    Unless ``finite`` is False, a NaN or infinite entry is refused.
    """
    A = np.asarray(M)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if dtype is float and A.dtype.kind == "c":
        if A.imag.any():
            raise ValueError("expected a real matrix")
        A = A.real
    if square and A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    A = A.astype(dtype, copy=False)
    if finite and not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def gaussian_matrix(rng: random.Random, n: int) -> np.ndarray:
    """n x n matrix of standard normal entries, drawn row by row from ``rng.gauss``."""
    return np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])


def random_unitary(rng: random.Random, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary drawn from a ``random.Random``."""
    Z = gaussian_matrix(rng, n) + 1j * gaussian_matrix(rng, n)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _gram_residual(A: np.ndarray) -> float:
    """Max-norm of A*A - I; the 1 is taken off the diagonal in place, with no identity built."""
    G = (A.conj().T if A.dtype.kind == "c" else A.T) @ A
    G.ravel()[::G.shape[0] + 1] -= 1
    return float(np.abs(G).max())


def _gram_is_identity(A: np.ndarray, tol: float) -> bool:
    """Is the max-norm of A*A - I within tol?

    No unitary matrix has an entry above 1, so an entry above 1 + tol fails
    before A*A is formed, and huge finite entries cannot overflow it.
    """
    return bool(np.abs(A).max() <= 1 + tol) and _gram_residual(A) <= tol


def _near_branch_cut(thetas: np.ndarray) -> bool:
    """Does an angle lie within 1e-6 of the branch cut at +-pi?"""
    return bool((np.abs(np.abs(thetas) - math.pi) < 1e-6).any())


def realify(U) -> np.ndarray:
    """Realification U(n) -> SO(2n) in the interleaved basis.

    Coordinate 2j-1 carries the real part and 2j the imaginary part of the
    j-th complex coordinate, so each entry u = a+bi becomes the 2x2 block
    [[a, -b], [b, a]].
    """
    A = _read_matrix(U)
    n = A.shape[0]
    if not _gram_is_identity(A, default_tol()):
        raise ValueError("input is not unitary within tolerance")
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = A.real
    R[0::2, 1::2] = -A.imag
    R[1::2, 0::2] = A.imag
    R[1::2, 1::2] = A.real
    return R


def unitary_eigh(A) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition A = V diag(exp(i theta)) V* of a unitary matrix.

    A is rotated to B = exp(-i alpha) A so that the midpoint of its widest
    eigenvalue gap sits at -1; the Cayley transform H = i(1 - B)(1 + B)^{-1}
    is then Hermitian, injective on the rest of the circle, and one ``eigh``
    of H gives V, however the eigenvalues cluster. An exactly symmetric A
    gives a real symmetric H and so a real orthogonal V. The angles are read
    off diag(V* A V) on the principal branch (-pi, pi].
    """
    return _unitary_eigh(_read_matrix(A))


def _unitary_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unitary_eigh`` of a complex square array already read by ``_read_matrix``."""
    tol = default_tol()
    if not _gram_is_identity(A, tol):
        raise ValueError("input is not unitary within tolerance")
    z = np.linalg.eigvals(A)
    w = np.sort(np.arctan2(z.imag, z.real)).tolist()
    gaps = [b - a for a, b in zip(w, w[1:] + [w[0] + 2 * math.pi])]
    k = gaps.index(max(gaps))
    B = -np.exp(-1j * (w[k] + gaps[k] / 2)) * A
    eye = np.eye(A.shape[0])
    H = 1j * np.linalg.solve(eye + B, eye - B)
    _, V = np.linalg.eigh(H.real if (A == A.T).all() else H)
    d = (V.conj() * (A @ V)).sum(axis=0)
    if not float(np.abs(np.abs(d) - 1.0).max()) <= max(100 * tol, 1e-8):
        raise ValueError("spectral decomposition failed; input too far from unitary")
    thetas = np.arctan2(d.imag, d.real)
    thetas[thetas <= -math.pi] = math.pi
    return V, thetas


@dataclass
class SymmetricSqrt:
    """Result of a symmetric-unitary square root."""

    matrix: np.ndarray
    thetas: np.ndarray
    orthogonal: np.ndarray
    near_branch_cut: bool
    residuals: dict = field(default_factory=dict)


def symmetric_unitary_sqrt(U) -> SymmetricSqrt:
    """Principal symmetric square root S of a symmetric unitary U.

    S^2 = U, S^T = S, S unitary; eigenvalue branch exp(i theta/2) with theta
    in (-pi, pi], so the eigenvalue -1 maps to i. U is symmetrized first, so
    its eigenbasis O is real orthogonal and S = O diag(exp(i theta/2)) O^T.
    Eigenvalues near the branch cut are flagged in the result metadata.
    """
    A = _read_matrix(U)
    if not float(np.abs(A - A.T).max()) <= default_tol():
        raise ValueError("input is not symmetric within tolerance")
    O, thetas = unitary_eigh((A + A.T) / 2)
    S = (O * np.exp(0.5j * thetas)) @ O.T
    residuals = {
        "square": float(np.abs(S @ S - A).max()),
        "symmetry": float(np.abs(S - S.T).max()),
        "unitarity": _gram_residual(S),
    }
    return SymmetricSqrt(S, thetas, O, _near_branch_cut(thetas), residuals)


# -- fixed-point retraction ----------------------------------------------------------


@dataclass
class Retraction:
    """Conjugation-fixed representative of a conjugation-fixed orbit."""

    frame: np.ndarray
    fiber: np.ndarray
    sqrt: SymmetricSqrt
    residuals: dict


def fixed_point_retraction(x, y) -> Retraction:
    """Move (x, y) to a conjugation-fixed representative of its orbit.

    ``x`` is an N x n isometry (a unitary frame: x*x = I) acted on the right,
    ``y`` an n-vector (or n x k block) acted on the left. The orbit class
    [x, y] must be conjugation-fixed: conj(x) = x U* for some U in U(n). That
    U is necessarily symmetric; with S its symmetric square root, the
    representative (x S*, S y) has real entries and lies in the same orbit.
    """
    tol = default_tol()
    X = _read_matrix(x, square=False)
    Y = np.asarray(y)
    if Y.ndim not in (1, 2):
        raise ValueError("fiber must be a vector or a matrix")
    # a vector is read as its one-column matrix
    Y = _read_matrix(Y[:, None] if Y.ndim == 1 else Y, square=False).reshape(Y.shape)
    n = X.shape[1]
    if Y.shape[0] != n:
        raise ValueError("fiber dimension does not match the frame")
    if not _gram_is_identity(X, tol):
        raise ValueError("frame columns are not orthonormal within tolerance")
    Ustar = X.conj().T @ X.conj()
    fixed_res = float(np.abs(X.conj() - X @ Ustar).max())
    if fixed_res > max(100 * tol, 1e-7):
        raise ValueError(f"orbit is not conjugation-fixed (residual {fixed_res:.3e})")
    U = Ustar.conj().T
    sqrt = symmetric_unitary_sqrt(U)
    S = sqrt.matrix
    frame = X @ S.conj().T
    fiber = S @ Y
    residuals = {
        "fixed_orbit": fixed_res,
        "frame_imag": float(np.abs(frame.imag).max()),
        "fiber_imag": float(np.abs(fiber.imag).max()) if fiber.size else 0.0,
        "orbit_frame": float(np.abs(frame @ S - X).max()),
        "orbit_fiber": float(np.abs(S.conj().T @ fiber - Y).max()) if fiber.size else 0.0,
    }
    return Retraction(frame, fiber, sqrt, residuals)


# -- JSON matrix format ---------------------------------------------------------------


def _entry_to_float(value) -> float:
    try:
        if isinstance(value, str):
            return float(rational_from_string(value))
        if isinstance(value, (int, float)):
            return float(value)
    except OverflowError as exc:
        raise ValueError("matrix entries must be finite") from exc
    raise ValueError(f"bad matrix entry component: {value!r}")


def matrix_from_json(obj) -> np.ndarray:
    """Parse {"rows": n, "cols": m, "entries": [[[re, im], ...], ...]}.

    Entry components may be floats or exact "p/q" strings; they must be finite.
    """
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError("matrix JSON must have rows, cols, entries") from exc
    if rows < 1 or cols < 1:
        raise ValueError("empty matrix: rows and cols must be at least 1")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("matrix entries must be a list of rows")
    if len(entries) != rows:
        raise ValueError("entry row count does not match rows")
    if any(len(row) != cols for row in entries):
        raise ValueError("entry column count does not match cols")
    M = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        for j, pair in enumerate(row):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("each entry must be a [re, im] pair")
            M[i, j] = complex(_entry_to_float(pair[0]), _entry_to_float(pair[1]))
    return _read_matrix(M, square=False)


def matrix_to_json(M) -> dict:
    A = _read_matrix(M, square=False)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }
