"""Pin^c/Spin^c elements, the twisted adjoint, and Spin/Spin^c lifts.

The twisted adjoint rho(g)(v) = (-1)^{|g|} g v g^{-1} lands in the orthogonal
group. Element validation is by certificate: constructors accept a product
of unit vectors times a unit phase (each factor is checked), or a raw
homogeneous multivector whose unit condition g * star(g) = 1 is checked
(exactly for rational data, within tolerance for numeric data). Numeric unit
checks, the numeric twisted adjoint and the lifts call the dense kernel of
the algebra directly (``CliffordAlgebra.dense_mul``); exact data uses the
sparse product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import CliffordAlgebra, Multivector, ccl, ccl_interleaved
from .linalg import check_finite, default_tol, random_unitary, realify, unitary_eigh
from .scalars import MultiPoly

EVEN, ODD = 0, 1


class PinElement:
    """Validated element of Pin^c: homogeneous parity and unit norm."""

    __slots__ = ("value", "parity", "meta")

    def __init__(self, value: Multivector, *, tol: float | None = None, meta=None):
        parity = value.parity()
        if parity is None:
            raise ValueError("Pin element must have homogeneous parity")
        if value.exact:
            if value * value.star() != value.algebra.scalar(1):
                raise ValueError("Pin element must satisfy g * star(g) = 1")
        else:
            if tol is None:
                tol = default_tol()
            _check_unit_error(_unit_error(value.algebra, value.to_dense()), tol)
        self.value = value
        self.parity = parity
        self.meta = meta or {}

    @classmethod
    def _trusted(cls, value: Multivector, parity: int) -> "PinElement":
        # products and conjugates of validated elements stay in the group
        self = object.__new__(cls)
        self.value = value
        self.parity = parity
        self.meta = {}
        return self

    @staticmethod
    def identity(algebra: CliffordAlgebra) -> "PinElement":
        return PinElement(algebra.scalar(1))

    @staticmethod
    def from_factors(algebra: CliffordAlgebra, vectors, phase=1,
                     tol: float | None = None) -> "PinElement":
        """Product of unit grade-1 vectors times a unit complex scalar."""
        value = algebra.scalar(phase)
        for vec in vectors:
            v = vec if isinstance(vec, Multivector) else algebra.vector(vec)
            if v.terms and v.grades() != {1}:
                raise ValueError("certificate factors must be grade-1")
            nsq = v * v
            if v.exact:
                # unit vectors live in the real span of the generators
                if not v.is_real() or nsq != algebra.scalar(1):
                    raise ValueError("certificate factor is not a real unit vector")
            else:
                if tol is None:
                    tol = default_tol()
                if not v.is_real(100 * tol) or not abs(nsq.scalar_part() - 1) <= 100 * tol:
                    raise ValueError(
                        "certificate factor is not a real unit vector within tolerance")
            value = value * v
        return PinElement(value, tol=tol)

    @property
    def algebra(self) -> CliffordAlgebra:
        return self.value.algebra

    @property
    def is_even(self) -> bool:
        return self.parity == EVEN

    def inverse_value(self) -> Multivector:
        return self.value.star()

    def bar(self) -> "PinElement":
        return PinElement._trusted(self.value.bar(), self.parity)

    def __mul__(self, other: "PinElement") -> "PinElement":
        return PinElement._trusted(self.value * other.value, (self.parity + other.parity) & 1)

    def __repr__(self):
        return f"PinElement({self.value})"


@dataclass
class OrthogonalAction:
    """Image of a Pin element under the twisted adjoint representation."""

    exact: bool
    rows: tuple  # tuple of row tuples; Fraction entries when exact, float otherwise

    @property
    def dim(self) -> int:
        return len(self.rows)

    def as_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows])

    def __matmul__(self, other: "OrthogonalAction") -> "OrthogonalAction":
        if self.exact and other.exact:
            n = self.dim
            rows = tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                      for j in range(n))
                for i in range(n)
            )
            return OrthogonalAction(True, rows)
        M = self.as_numpy() @ other.as_numpy()
        return OrthogonalAction(False, tuple(tuple(row) for row in M))

    def transpose(self) -> "OrthogonalAction":
        n = self.dim
        return OrthogonalAction(self.exact,
                                tuple(tuple(self.rows[j][i] for j in range(n))
                                      for i in range(n)))

    def is_orthogonal(self, tol: float = 0.0) -> bool:
        prod = self.transpose() @ self
        n = self.dim
        if self.exact:
            ident = Fraction(1)
            return all(prod.rows[i][j] == (ident if i == j else 0)
                       for i in range(n) for j in range(n))
        return float(np.max(np.abs(prod.as_numpy() - np.eye(n)))) <= tol

    def __eq__(self, other):
        if not isinstance(other, OrthogonalAction):
            return NotImplemented
        return self.rows == other.rows


def _unit_error(alg: CliffordAlgebra, g: np.ndarray) -> float:
    """Max-norm of g * star(g) - 1 for a dense numeric element; NaN propagates."""
    unit = alg.dense_mul(g, alg.dense_star(g))
    unit[0] -= 1.0
    return float(np.max(np.abs(unit)))


def _check_unit_error(err: float, tol: float):
    if not err <= max(tol, 1e-9) * 100:
        raise ValueError("Pin element must satisfy g * star(g) = 1 within tolerance")


_NON_REAL = "twisted adjoint has non-real entries; invalid Pin element"
_OFF_GRADE = "twisted adjoint does not preserve grade 1; invalid Pin element"


def twisted_adjoint(g: PinElement, tol: float | None = None) -> OrthogonalAction:
    """Matrix of rho(g): column k is (-1)^{|g|} g e_k g^{-1} in the generator basis."""
    alg = g.algebra
    if tol is None:
        tol = default_tol()
    if not g.value.exact:
        return _twisted_adjoint_numeric(g, tol)
    ginv = g.inverse_value()
    cols = []
    for k in range(alg.dim):
        w = g.value * alg.generator(k + 1) * ginv
        if g.parity == ODD:
            w = -w
        col = []
        for i in range(alg.dim):
            c = w.coeff(1 << i)
            if not c.is_real:
                raise ValueError(_NON_REAL)
            col.append(c.re)
        if w - alg.vector(col):
            raise ValueError(_OFF_GRADE)
        cols.append(col)
    rows = tuple(tuple(cols[j][i] for j in range(alg.dim)) for i in range(alg.dim))
    return OrthogonalAction(True, rows)


def _twisted_adjoint_numeric(g: PinElement, tol: float) -> OrthogonalAction:
    """One kernel pass right-multiplies the block [g e_1, ..., g e_n, g] by g*.

    Row k is g e_k g* at all grades, so a component off grade 1 is seen, and
    the last row is the unit product g g*, which must be 1 for g* to be the
    inverse of g.
    """
    alg = g.algebra
    n = alg.dim
    value = g.value.to_dense()
    block = np.stack([alg.dense_mul(value, alg.generator(k + 1).to_dense())
                      for k in range(n)] + [value])
    conj = alg.dense_mul(block, alg.dense_star(value))
    conj[n, 0] -= 1.0
    _check_unit_error(float(np.max(np.abs(conj[n]))), tol)
    w = -conj[:n] if g.parity == ODD else conj[:n]
    gens = 1 << np.arange(n)
    cols = w[:, gens]  # cols[k, i]: e_i coefficient of rho(g) e_k
    residue = w.copy()
    residue[:, gens] = 1j * cols.imag
    non_real = ~np.all(np.abs(cols.imag) <= 100 * tol, axis=1)
    off_grade = ~(np.max(np.abs(residue), axis=1) <= 100 * tol)
    bad = np.flatnonzero(non_real | off_grade)
    if bad.size:
        raise ValueError(_NON_REAL if non_real[bad[0]] else _OFF_GRADE)
    return OrthogonalAction(False, tuple(map(tuple, cols.real.T.tolist())))


def check_rho_real_equivariance(g: PinElement, rho: OrthogonalAction | None = None) -> bool:
    """Does rho(conj g) equal conj(rho(g))? (Real homomorphism property.)

    Conjugation on the orthogonal side is M -> D M D with
    D = diag(``algebra.bar_signs``): it negates the coordinates of the
    generators that bar negates. Pass a precomputed ``rho`` to reuse it.
    """
    lhs = twisted_adjoint(g.bar())
    if rho is None:
        rho = twisted_adjoint(g)
    d = g.algebra.bar_signs
    rhs = OrthogonalAction(rho.exact, tuple(
        tuple(x * (d[i] * d[j]) for j, x in enumerate(row)) for i, row in enumerate(rho.rows)))
    if lhs.exact and rhs.exact:
        return lhs == rhs
    return float(np.max(np.abs(lhs.as_numpy() - rhs.as_numpy()))) <= default_tol()


def is_fixed_spinc(g: PinElement, tol: float | None = None) -> bool:
    """Membership of the C2-fixed subgroup: all coefficients real."""
    if tol is None:
        tol = default_tol()
    return g.value.is_real(tol)


# -- Spin lift of special orthogonal matrices ---------------------------------------


def _reflect_inplace(A: np.ndarray, u: np.ndarray):
    A -= 2.0 * np.outer(u, u @ A)


def householder_factors(R: np.ndarray, tol: float) -> list[np.ndarray]:
    """Factor R in SO(n) as refl(u_1) ... refl(u_m) with an even number of terms.

    Columns are fixed one by one; a nearly-fixed column is skipped, and a
    column with nonnegative e_j component uses the two-reflection route
    through the stabilized midpoint (a + e_j)/|a + e_j|.
    """
    A = check_finite(np.array(R, dtype=float, copy=True))
    n = A.shape[0]
    factors: list[np.ndarray] = []
    for j in range(n):
        a = A[:, j].copy()
        e = np.zeros(n)
        e[j] = 1.0
        if float(np.linalg.norm(a - e)) < 1e-13:
            continue
        if a[j] >= 0.0:
            h = a + e
            h /= np.linalg.norm(h)
            _reflect_inplace(A, h)
            _reflect_inplace(A, e)
            factors.append(h)
            factors.append(e)
        else:
            u = a - e
            u /= np.linalg.norm(u)
            _reflect_inplace(A, u)
            factors.append(u)
    if not float(np.max(np.abs(A - np.eye(n)))) <= max(1e-11, 10 * tol):
        raise ValueError("reflection factorization failed to converge")
    if len(factors) % 2:
        raise ValueError("odd reflection count; determinant is not +1")
    return factors


def _lex_leading_mask(mv: Multivector, floor: float) -> int | None:
    """Smallest blade (lexicographic on index words) with magnitude above floor."""
    alg = mv.algebra
    best = None
    best_key = None
    for mask, c in mv.terms.items():
        if abs(complex(c)) <= floor:
            continue
        key = tuple(i for i in range(alg.dim) if mask & (1 << i))
        if best_key is None or key < best_key:
            best_key = key
            best = mask
    return best


def _normalize_sign(mv: Multivector, tol: float) -> Multivector:
    lead = _lex_leading_mask(mv, tol)
    if lead is None:
        return mv
    c = complex(mv.terms[lead])
    if c.real < -tol or (abs(c.real) <= tol and c.imag < 0):
        return -mv
    return mv


def spin_lift(R, tol: float | None = None, algebra: CliffordAlgebra | None = None) -> PinElement:
    """Even Pin element g with twisted_adjoint(g) = R, for R in SO(n).

    The branch sign is fixed so the lexicographically smallest blade with
    magnitude above tolerance has positive real part (ties broken by positive
    imaginary part). Matrices with determinant -1 are rejected.
    """
    if tol is None:
        tol = default_tol()
    A = np.asarray(R, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    n = A.shape[0]
    check_finite(A)
    if not float(np.max(np.abs(A.T @ A - np.eye(n)))) <= tol:
        raise ValueError("input is not orthogonal within tolerance")
    if np.linalg.det(A) < 0:
        raise ValueError("determinant -1: odd Pin lift not handled by this operation")
    if algebra is None:
        algebra = ccl(n, 0)
    elif algebra.dim != n:
        raise ValueError("algebra dimension does not match the matrix")
    factors = householder_factors(A, tol)
    value = algebra.scalar(1 + 0j).to_dense()
    generators = 1 << np.arange(n)
    for u in factors:
        v = np.zeros(1 << n, dtype=complex)
        v[generators] = u
        value = algebra.dense_mul(value, v)
    value = _normalize_sign(algebra.from_dense(value), tol)
    return PinElement(value, tol=tol, meta={"reflections": len(factors)})


def rho_residual(g: PinElement, R) -> float:
    """Max-norm residual between twisted_adjoint(g) and a target matrix."""
    return float(np.max(np.abs(twisted_adjoint(g).as_numpy() - np.asarray(R, dtype=float))))


def unit_residual(g: PinElement) -> float:
    """Max-norm of g * star(g) - 1 (0 or 1 for exact data); NaN propagates."""
    if g.value.exact:
        return 0.0 if g.value * g.value.star() == g.algebra.scalar(1) else 1.0
    return _unit_error(g.algebra, g.value.to_dense())


# -- the Spin^c lift of unitary matrices ---------------------------------------------


def phi_lift(U, tol: float | None = None, rng=None) -> PinElement:
    """Canonical Spin^c(n,n) lift of a unitary matrix, in the interleaved basis.

    With U = V diag(exp(i theta_j)) V* from ``linalg.unitary_eigh``, the
    element is the product of the plane rotors
    cos(theta_j/2) - sin(theta_j/2) e_{2j-1} e_{2j}, conjugated by the spin
    lift of realify(V), times the central phase exp(i sum(theta_j)/2) whose
    square is det(U). Angles use the principal branch (-pi, pi]; the result
    does not depend on the eigendecomposition. Pass ``rng`` to decompose
    Q* U Q for a random unitary Q instead (used to exercise canonicity).
    """
    if tol is None:
        tol = default_tol()
    A = np.asarray(U, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    n = A.shape[0]
    algebra = ccl_interleaved(n)
    if rng is None:
        V, thetas = unitary_eigh(A, tol)
    else:
        Q = random_unitary(rng, n)
        V, thetas = unitary_eigh(Q.conj().T @ A @ Q, tol)
        V = Q @ V
    near_branch = bool(np.any(np.abs(np.abs(thetas) - math.pi) < 1e-6))

    rotor = algebra.scalar(1 + 0j)
    for j, theta in enumerate(thetas):
        c = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        if abs(s) < 1e-300 and c > 0:
            continue
        coeffs = [0j] * (2 * n)
        coeffs[2 * j] = complex(c)
        coeffs[2 * j + 1] = complex(s)
        v1 = algebra.vector(coeffs)
        v2 = algebra.generator(2 * j + 1).to_numeric()
        rotor = rotor * v1 * v2

    L = spin_lift(realify(V, tol), tol, algebra=algebra)
    phase = complex(np.exp(1j * float(np.sum(thetas)) / 2.0))
    value = (L.value * rotor * L.value.star()).scale(phase)
    return PinElement(
        value,
        tol=tol,
        meta={
            "thetas": [float(t) for t in thetas],
            "near_branch_cut": near_branch,
            "phase": phase,
        },
    )


def check_phi_real(U, tol: float | None = None) -> bool:
    """Does phi(conj U) equal the Real conjugate of phi(U)?"""
    if tol is None:
        tol = default_tol()
    a = phi_lift(np.conj(np.asarray(U, dtype=complex)), tol)
    b = phi_lift(U, tol)
    return a.value.max_diff(b.value.bar()) <= max(tol, 1e-9)


# -- polynomial model of the i_V action ----------------------------------------------


def iv_model_action(g: PinElement, x: Multivector, f: MultiPoly):
    """(g, v (x) f) -> (g*v, f o rho(g)^{-1}) on the polynomial model of L^2(V)."""
    alg = g.algebra
    if x.algebra is not alg:
        raise ValueError("signature mismatch")
    if f.nvars != alg.dim:
        raise ValueError("variable-count mismatch")
    if not g.value.exact:
        raise ValueError("polynomial action requires exact rational Pin elements")
    rho = twisted_adjoint(g)
    rho_inv = rho.transpose()  # orthogonal inverse
    substituted = f.compose_linear([list(row) for row in rho_inv.rows])
    return g.value * x, substituted
