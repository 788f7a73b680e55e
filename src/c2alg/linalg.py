"""Matrix kernels: realification, unitary eigendecomposition, symmetric-unitary
square roots, fixed-point retraction.

Eigenvalue-based routines work in double precision with a default tolerance of
1e-9, overridable per call or through the ``C2ALG_TOL`` environment variable.
The Real-vector-space splitting works exactly on Gaussian-rational data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, rational_from_string


def default_tol() -> float:
    """The ``C2ALG_TOL`` value, or 1e-9; anything but a positive finite number is an error."""
    raw = os.environ.get("C2ALG_TOL", "1e-9")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"C2ALG_TOL must be a positive finite number, got {raw!r}")
    return tol


def check_finite(A: np.ndarray) -> np.ndarray:
    """Return A; raise ValueError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    return check_finite(A)


def random_unitary(nrng, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary drawn from a numpy Generator."""
    Z = nrng.standard_normal((n, n)) + 1j * nrng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def is_unitary(M, tol: float | None = None) -> bool:
    """True iff the max-norm of M*M - I is within tol. Rejects non-square input."""
    A = _as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    if tol is None:
        tol = default_tol()
    n = A.shape[0]
    return float(np.max(np.abs(A.conj().T @ A - np.eye(n)))) <= tol


def realify(U, tol: float | None = None) -> np.ndarray:
    """Realification U(n) -> SO(2n) in the interleaved basis.

    Coordinate 2j-1 carries the real part and 2j the imaginary part of the
    j-th complex coordinate, so each entry u = a+bi becomes the 2x2 block
    [[a, -b], [b, a]].
    """
    A = _as_matrix(U)
    if tol is None:
        tol = default_tol()
    if not is_unitary(A, tol):
        raise ValueError("input is not unitary within tolerance")
    n = A.shape[0]
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = A.real
    R[0::2, 1::2] = -A.imag
    R[1::2, 0::2] = A.imag
    R[1::2, 1::2] = A.real
    return R


def unitary_eigh(A, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition A = V diag(exp(i theta)) V* of a unitary matrix.

    A is rotated to B = exp(-i alpha) A so that the midpoint of its widest
    eigenvalue gap sits at -1; the Cayley transform H = i(1 - B)(1 + B)^{-1}
    is then Hermitian, injective on the rest of the circle, and one ``eigh``
    of H gives V, however the eigenvalues cluster. An exactly symmetric A
    gives a real symmetric H and so a real orthogonal V. The angles are read
    off diag(V* A V) on the principal branch (-pi, pi].
    """
    A = _as_matrix(A)
    if tol is None:
        tol = default_tol()
    if A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    if not is_unitary(A, tol):
        raise ValueError("input is not unitary within tolerance")
    n = A.shape[0]
    w = np.sort(np.angle(np.linalg.eigvals(A)))
    gaps = np.diff(w, append=w[0] + 2 * math.pi)
    k = int(np.argmax(gaps))
    B = -np.exp(-1j * (w[k] + gaps[k] / 2)) * A
    H = 1j * np.linalg.solve(np.eye(n) + B, np.eye(n) - B)
    _, V = np.linalg.eigh(H.real if np.array_equal(A, A.T) else H)
    d = np.sum(V.conj() * (A @ V), axis=0)
    if not float(np.max(np.abs(np.abs(d) - 1.0))) <= max(100 * tol, 1e-8):
        raise ValueError("spectral decomposition failed; input too far from unitary")
    thetas = np.angle(d)
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


def symmetric_unitary_sqrt(U, tol: float | None = None) -> SymmetricSqrt:
    """Principal symmetric square root S of a symmetric unitary U.

    S^2 = U, S^T = S, S unitary; eigenvalue branch exp(i theta/2) with theta
    in (-pi, pi], so the eigenvalue -1 maps to i. U is symmetrized first, so
    its eigenbasis O is real orthogonal and S = O diag(exp(i theta/2)) O^T.
    Eigenvalues near the branch cut are flagged in the result metadata.
    """
    A = _as_matrix(U)
    if tol is None:
        tol = default_tol()
    if A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    if not float(np.max(np.abs(A - A.T))) <= tol:
        raise ValueError("input is not symmetric within tolerance")
    O, thetas = unitary_eigh((A + A.T) / 2, tol)
    S = (O * np.exp(0.5j * thetas)) @ O.T
    residuals = {
        "square": float(np.max(np.abs(S @ S - A))),
        "symmetry": float(np.max(np.abs(S - S.T))),
        "unitarity": float(np.max(np.abs(S.conj().T @ S - np.eye(A.shape[0])))),
    }
    near = bool(np.any(np.abs(np.abs(thetas) - math.pi) < 1e-6))
    return SymmetricSqrt(S, thetas, O, near, residuals)


# -- exact splitting of Real vector spaces ------------------------------------------


def _gr(value) -> GaussianRational:
    return GaussianRational.from_value(value)


def _apply_involution(C, v):
    """Conjugate-linear map v -> C * conj(v) on GaussianRational vectors."""
    n = len(v)
    out = []
    for row in C:
        acc = GaussianRational.ZERO
        for c, x in zip(row, v):
            acc = acc + c * x.conjugate()
        out.append(acc)
    return out


def _check_involution(C):
    n = len(C)
    if any(len(row) != n for row in C):
        raise ValueError("involution matrix must be square")
    # C * conj(C) = I  <=>  the conjugate-linear map squares to the identity
    for j in range(n):
        basis = [GaussianRational.ONE if i == j else GaussianRational.ZERO for i in range(n)]
        twice = _apply_involution(C, _apply_involution(C, basis))
        for i, entry in enumerate(twice):
            expected = GaussianRational.ONE if i == j else GaussianRational.ZERO
            if entry != expected:
                raise ValueError("involution axiom violated: the map does not square to the identity")


def complexify_split(v, involution):
    """Split v = v1 (x) 1 + v2 (x) i with v1, v2 fixed by the involution.

    ``involution`` is the matrix C of a conjugate-linear involution
    x -> C conj(x); the computation is exact on Gaussian-rational data and
    ``v1 + i*v2`` reassembles v.
    """
    vec = [_gr(x) for x in v]
    C = [[_gr(x) for x in row] for row in involution]
    if len(C) != len(vec):
        raise ValueError("dimension mismatch between vector and involution")
    _check_involution(C)
    cv = _apply_involution(C, vec)
    half = Fraction(1, 2)
    minus_half_i = GaussianRational(0, Fraction(-1, 2))
    v1 = [(x + y) * half for x, y in zip(vec, cv)]
    v2 = [(x - y) * minus_half_i for x, y in zip(vec, cv)]
    return v1, v2


def complexify_reassemble(v1, v2):
    i = GaussianRational.I
    return [_gr(a) + i * _gr(b) for a, b in zip(v1, v2)]


# -- fixed-point retraction ----------------------------------------------------------


@dataclass
class Retraction:
    """Conjugation-fixed representative of a conjugation-fixed orbit."""

    frame: np.ndarray
    fiber: np.ndarray
    sqrt: SymmetricSqrt
    residuals: dict


def fixed_point_retraction(x, y, tol: float | None = None) -> Retraction:
    """Move (x, y) to a conjugation-fixed representative of its orbit.

    ``x`` is an N x n isometry (a unitary frame: x*x = I) acted on the right,
    ``y`` an n-vector (or n x k block) acted on the left. The orbit class
    [x, y] must be conjugation-fixed: conj(x) = x U* for some U in U(n). That
    U is necessarily symmetric; with S its symmetric square root, the
    representative (x S*, S y) has real entries and lies in the same orbit.
    """
    if tol is None:
        tol = default_tol()
    X = _as_matrix(x)
    Y = np.asarray(y, dtype=complex)
    n = X.shape[1]
    if Y.shape[0] != n:
        raise ValueError("fiber dimension does not match the frame")
    if float(np.max(np.abs(X.conj().T @ X - np.eye(n)))) > tol:
        raise ValueError("frame columns are not orthonormal within tolerance")
    Ustar = X.conj().T @ X.conj()
    fixed_res = float(np.max(np.abs(X.conj() - X @ Ustar)))
    if fixed_res > max(100 * tol, 1e-7):
        raise ValueError(f"orbit is not conjugation-fixed (residual {fixed_res:.3e})")
    U = Ustar.conj().T
    sqrt = symmetric_unitary_sqrt(U, tol)
    S = sqrt.matrix
    frame = X @ S.conj().T
    fiber = S @ Y
    residuals = {
        "fixed_orbit": fixed_res,
        "frame_imag": float(np.max(np.abs(frame.imag))),
        "fiber_imag": float(np.max(np.abs(fiber.imag))) if fiber.size else 0.0,
        "orbit_frame": float(np.max(np.abs(frame @ S - X))),
        "orbit_fiber": float(np.max(np.abs(S.conj().T @ fiber - Y))) if fiber.size else 0.0,
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
    return check_finite(M)


def matrix_to_json(M) -> dict:
    A = _as_matrix(M)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }
