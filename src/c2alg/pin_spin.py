"""Pin^c/Spin^c elements, the twisted adjoint, and Spin/Spin^c lifts.

The twisted adjoint rho(g)(v) = (-1)^{|g|} g v g^{-1} lands in the orthogonal
group. Element validation is by certificate: constructors accept a product
of unit vectors times a unit phase (each factor is checked, and an exact
product of factors with v v* = 1 needs no further check), or a raw
homogeneous multivector whose unit condition g * star(g) = 1 is checked
(exactly for rational data, within tolerance for numeric data). Every numeric
comparison reads ``linalg.default_tol()`` (1e-9 or ``C2ALG_TOL``) where it
compares; no function here takes a per-call tolerance. The exact
twisted adjoint is a projection onto grade 1 in integer arithmetic, with no
product: its entries are l2 inner products <e_i g, g e_k>, and grade 1 is
preserved exactly when each column has norm 1, because x -> g x g* is an l2
isometry. Exact work runs on integer numerators over one common denominator
(``clifford.integer_numerators``): the projection, the accumulated product of
certificate factors, and the matrix product and orthogonality test of
``OrthogonalAction``; a Fraction is built once per output entry. Numeric unit
checks, the numeric twisted adjoint and the lifts call the dense kernel of
the algebra directly (``CliffordAlgebra.dense_mul``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import (CliffordAlgebra, Multivector, ccl, ccl_interleaved, integer_numerators,
                       integer_product, integer_terms, rational_terms)
from .linalg import check_finite, default_tol, random_unitary, realify, unitary_eigh
from .scalars import GaussianRational, MultiPoly

EVEN, ODD = 0, 1


class PinElement:
    """Validated element of Pin^c: homogeneous parity and unit norm."""

    __slots__ = ("value", "parity", "meta")

    def __init__(self, value: Multivector, *, meta=None):
        parity = value.parity()
        if parity is None:
            raise ValueError("Pin element must have homogeneous parity")
        if value.exact:
            if value * value.star() != value.algebra.scalar(1):
                raise ValueError("Pin element must satisfy g * star(g) = 1")
        else:
            _check_unit_error(_unit_error(value.algebra, value.to_dense()), default_tol())
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
    def from_factors(algebra: CliffordAlgebra, vectors, phase=1) -> "PinElement":
        """Product of unit grade-1 vectors times a unit complex scalar.

        Every factor must be real with v^2 = 1. An exact factor without weight
        on a negative-square generator also has v v* = 1, so an exact product
        of such factors times a phase with re^2 + im^2 = 1 is exactly unit
        and is trusted without a product check. Any other product is checked
        as a whole: exactly for rational data, within tolerance for numeric.
        An exact product is accumulated on integer numerators
        (``clifford.integer_product``) and normalised once at the end.
        """
        phase = algebra.coerce_coeff(phase)
        exact = trusted = isinstance(phase, GaussianRational)
        if trusted and phase.re * phase.re + phase.im * phase.im != 1:
            raise ValueError("certificate phase is not a unit complex scalar")
        squares = algebra.squares
        factors = []
        integer_factors = []
        for vec in vectors:
            v = vec if isinstance(vec, Multivector) else algebra.vector(vec)
            if v.terms and v.grades() != {1}:
                raise ValueError("certificate factors must be grade-1")
            if v.exact:
                # unit vectors live in the real span of the generators, and
                # v * v is the scalar sum of squares[i] c_i^2 (cross terms cancel)
                den, ints = integer_terms(v.terms)
                if (any(y for _, _, y in ints)
                        or sum(squares[m.bit_length() - 1] * x * x for m, x, _ in ints)
                        != den * den):
                    raise ValueError("certificate factor is not a real unit vector")
                trusted = trusted and not any(m & algebra.neg_square_mask for m in v.terms)
                integer_factors.append((den, ints))
            else:
                tol = default_tol()
                nsq = sum(squares[m.bit_length() - 1] * c * c for m, c in v.terms.items())
                if not v.is_real(100 * tol) or not abs(nsq - 1) <= 100 * tol:
                    raise ValueError(
                        "certificate factor is not a real unit vector within tolerance")
                exact = trusted = False
            factors.append(v)
        if exact:
            den, acc = integer_terms({0: phase})
            for d, ints in integer_factors:
                den *= d
                acc = integer_product(algebra.flip, acc, ints)
            value = Multivector(algebra, rational_terms(den, acc))
        else:
            value = algebra.scalar(phase)
            for v in factors:
                value = value * v
        if trusted:
            return PinElement._trusted(value, len(factors) & 1)
        return PinElement(value)

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

    def _entries(self) -> list:
        """Every entry, row by row: entry (i, j) is at i * dim + j."""
        return [x for row in self.rows for x in row]

    def __matmul__(self, other: "OrthogonalAction") -> "OrthogonalAction":
        if self.exact and other.exact:
            n = self.dim
            d1, a = integer_numerators(self._entries())
            d2, b = integer_numerators(other._entries())
            den = d1 * d2
            cols = [b[j::n] for j in range(n)]
            return OrthogonalAction(True, tuple(
                tuple(Fraction(sum(map(operator.mul, a[i:i + n], col)), den) for col in cols)
                for i in range(0, n * n, n)))
        M = self.as_numpy() @ other.as_numpy()
        return OrthogonalAction(False, tuple(tuple(row) for row in M))

    def transpose(self) -> "OrthogonalAction":
        n = self.dim
        return OrthogonalAction(self.exact,
                                tuple(tuple(self.rows[j][i] for j in range(n))
                                      for i in range(n)))

    def is_orthogonal(self) -> bool:
        """M^T M = 1 exactly, as integer column products against den^2."""
        if not self.exact:
            raise ValueError("is_orthogonal needs an exact action")
        n = self.dim
        den, a = integer_numerators(self._entries())
        cols = [a[j::n] for j in range(n)]
        den2 = den * den
        return all(sum(map(operator.mul, cols[i], cols[j])) == (den2 if i == j else 0)
                   for i in range(len(cols)) for j in range(i, len(cols)))

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


def twisted_adjoint(g: PinElement) -> OrthogonalAction:
    """Matrix of rho(g): column k is (-1)^{|g|} g e_k g^{-1} in the generator basis.

    Exact data is projected, not multiplied out. Every blade is unitary
    (e_m* e_m = 1 in ``ccl``, ``kasparov`` and ``ccl_interleaved``), so
    <x* y>_0 is the l2 inner product <x, y> = sum_m conj(x_m) y_m, and since
    <.>_0 is a trace the e_i coefficient of g e_k g* is
    <e_i* g e_k g*>_0 = <(e_i g)* (g e_k)>_0 = <e_i g, g e_k>. Both e_i g and
    g e_k are signed relabellings of the support of g, so with g brought to
    one denominator D an entry is a sum of integer products, divided by D^2
    only when the Fraction entry is built.

    No tolerance is involved. An entry whose imaginary sum is nonzero is
    non-real. Grade 1 is preserved exactly when every column has sum
    num[i, k]^2 = D^4: for g* g = 1 the map x -> g x g* is an l2 isometry
    (<g x g*, g y g*> = <x, y> by the trace), so g e_k g* has norm 1, which
    its grade-1 part reaches only when nothing lies off grade 1. Each column
    is tested for non-real entries first, then off grade.
    """
    if not g.value.exact:
        return _twisted_adjoint_numeric(g, default_tol())
    alg = g.algebra
    n = alg.dim
    blade_product = alg.blade_product
    den, g_ints = integer_terms(g.value.terms)
    # g e_k as (blade, re, im) and e_i g as blade -> (re, im), all over den
    lefts = []
    rights = []
    for k in range(n):
        gen = 1 << k
        left = []
        right = {}
        for m, x, y in g_ints:
            sign, mask = blade_product(m, gen)
            left.append((mask, sign * x, sign * y))
            sign, mask = blade_product(gen, m)
            right[mask] = (sign * x, sign * y)
        lefts.append(left)
        rights.append(right)
    sign = -1 if g.parity == ODD else 1
    den4 = den ** 4
    cols = []
    for left in lefts:
        col = []
        for right in rights:
            re = im = 0
            for mask, x, y in left:
                pair = right.get(mask)
                if pair is not None:
                    u, v = pair
                    re += u * x + v * y
                    im += u * y - v * x
            if im:
                raise ValueError(_NON_REAL)
            col.append(sign * re)
        if sum(c * c for c in col) != den4:
            raise ValueError(_OFF_GRADE)
        cols.append(col)
    den2 = den * den
    return OrthogonalAction(True, tuple(tuple(Fraction(col[i], den2) for col in cols)
                                        for i in range(n)))


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


def is_fixed_spinc(g: PinElement) -> bool:
    """Membership of the C2-fixed subgroup: all coefficients real within tolerance."""
    return g.value.is_real(default_tol())


# -- Spin lift of special orthogonal matrices ---------------------------------------


def _reflect_inplace(A: np.ndarray, u: np.ndarray):
    A -= 2.0 * np.outer(u, u @ A)


def householder_factors(R: np.ndarray) -> list[np.ndarray]:
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
    if not float(np.max(np.abs(A - np.eye(n)))) <= max(1e-11, 10 * default_tol()):
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


def spin_lift(R, *, algebra: CliffordAlgebra | None = None) -> PinElement:
    """Even Pin element g with twisted_adjoint(g) = R, for R in SO(n).

    The branch sign is fixed so the lexicographically smallest blade with
    magnitude above tolerance has positive real part (ties broken by positive
    imaginary part). Matrices with determinant -1 are rejected.
    """
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
    factors = householder_factors(A)
    value = algebra.scalar(1 + 0j).to_dense()
    generators = 1 << np.arange(n)
    for u in factors:
        v = np.zeros(1 << n, dtype=complex)
        v[generators] = u
        value = algebra.dense_mul(value, v)
    value = _normalize_sign(algebra.from_dense(value), tol)
    return PinElement(value, meta={"reflections": len(factors)})


def rho_residual(g: PinElement, R) -> float:
    """Max-norm residual between twisted_adjoint(g) and a target matrix."""
    return float(np.max(np.abs(twisted_adjoint(g).as_numpy() - np.asarray(R, dtype=float))))


def unit_residual(g: PinElement) -> float:
    """Max-norm of g * star(g) - 1 (0 or 1 for exact data); NaN propagates."""
    if g.value.exact:
        return 0.0 if g.value * g.value.star() == g.algebra.scalar(1) else 1.0
    return _unit_error(g.algebra, g.value.to_dense())


# -- the Spin^c lift of unitary matrices ---------------------------------------------


def phi_lift(U, *, rng=None) -> PinElement:
    """Canonical Spin^c(n,n) lift of a unitary matrix, in the interleaved basis.

    With U = V diag(exp(i theta_j)) V* from ``linalg.unitary_eigh``, the
    element is the product of the plane rotors
    cos(theta_j/2) - sin(theta_j/2) e_{2j-1} e_{2j}, conjugated by the spin
    lift of realify(V), times the central phase exp(i sum(theta_j)/2) whose
    square is det(U). Angles use the principal branch (-pi, pi]; the result
    does not depend on the eigendecomposition. Pass ``rng`` to decompose
    Q* U Q for a random unitary Q instead (used to exercise canonicity).
    """
    A = np.asarray(U, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("non-square input")
    n = A.shape[0]
    algebra = ccl_interleaved(n)
    if rng is None:
        V, thetas = unitary_eigh(A)
    else:
        Q = random_unitary(rng, n)
        V, thetas = unitary_eigh(Q.conj().T @ A @ Q)
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

    L = spin_lift(realify(V), algebra=algebra)
    phase = complex(np.exp(1j * float(np.sum(thetas)) / 2.0))
    value = (L.value * rotor * L.value.star()).scale(phase)
    return PinElement(
        value,
        meta={
            "thetas": [float(t) for t in thetas],
            "near_branch_cut": near_branch,
            "phase": phase,
        },
    )


def check_phi_real(U) -> bool:
    """Does phi(conj U) equal the Real conjugate of phi(U)?"""
    a = phi_lift(np.conj(np.asarray(U, dtype=complex)))
    b = phi_lift(U)
    return a.value.max_diff(b.value.bar()) <= max(default_tol(), 1e-9)


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
