"""Pin^c/Spin^c elements, the twisted adjoint, and Spin/Spin^c lifts.

The twisted adjoint rho(g)(v) = (-1)^{|g|} g v g^{-1} lands in the orthogonal
group. There are two element types, one per mode. ``PinElement`` wraps an
exact ``Multivector`` (a float never gets that far: ``GaussianRational.from_value``
refuses it when the multivector is built): a product of unit vectors times a unit
phase (each factor is checked, and a product of factors with v v* = 1 needs
no further check), or a raw homogeneous multivector whose unit condition
g * star(g) = 1 is checked exactly. ``DensePin`` holds numeric data: a phase
times real vectors, and their product as a read-only parity half (the
coefficients of the blades of its one parity; the other half is zero). The
product of the vectors is real and is formed in float64; multiplying by the
phase is the only complex step. The constructor measures the unit error
once, by vector products alone, and nothing downstream repeats it; -g reuses
it. Every numeric comparison reads ``linalg.default_tol()`` (1e-9 or
``C2ALG_TOL``) where it compares; no function here takes a per-call
tolerance. Both modes take the twisted adjoint by the same projection onto
grade 1, with no product: its entries are l2 inner products <e_i g, g e_k>,
and since x -> g x g* is an l2 isometry, whatever is missing from a column's
norm lies off grade 1. Exact data is stored as integer numerators over one
denominator, in a ``Multivector`` and in an ``OrthogonalAction`` alike, so
the projection, the accumulated product of certificate factors, and the
matrix product and orthogonality test run on Python ints; a Fraction is
built only for a reader of ``OrthogonalAction.rows``. Numeric work runs on
the parity halves: the rows e_i g and g e_k are gathered from the
per-generator tables of the algebra, every numeric product is by a vector
(``CliffordAlgebra.half_mul_vector``, O(n 2^(n-1))), and a numeric rho is an
ndarray.
"""

from __future__ import annotations

import copy
import math
import operator
from fractions import Fraction

import numpy as np

from .clifford import CliffordAlgebra, Multivector, ccl, ccl_interleaved, integer_product
from .linalg import (_gram_is_identity, _near_branch_cut, _read_matrix, _unitary_eigh,
                     default_tol, random_unitary, realify, unitary_eigh)
from .scalars import GaussianRational, MultiPoly, integer_numerators

EVEN, ODD = 0, 1


def _require_pin(g) -> "PinElement":
    if not isinstance(g, PinElement):
        raise ValueError(f"this operation takes an exact PinElement, not {type(g).__name__}")
    return g


class PinElement:
    """Validated exact element of Pin^c: homogeneous parity and g * star(g) = 1."""

    __slots__ = ("value", "parity")

    def __init__(self, value: Multivector):
        parity = value.parity()
        if parity is None:
            raise ValueError("Pin element must have homogeneous parity")
        if value * value.star() != value.algebra.scalar(1):
            raise ValueError("Pin element must satisfy g * star(g) = 1")
        self.value = value
        self.parity = parity

    @classmethod
    def _trusted(cls, value: Multivector, parity: int) -> "PinElement":
        # products and conjugates of validated elements stay in the group
        self = object.__new__(cls)
        self.value = value
        self.parity = parity
        return self

    @staticmethod
    def identity(algebra: CliffordAlgebra) -> "PinElement":
        return PinElement(algebra.scalar(1))

    @staticmethod
    def from_factors(algebra: CliffordAlgebra, vectors, phase=1) -> "PinElement":
        """Product of exact unit grade-1 vectors times an exact unit complex scalar.

        Every factor must be a real element of ``algebra`` with v^2 = 1; a
        factor of another algebra is refused before any product. A factor
        without weight on a negative-square generator also has v v* = 1, so a
        product of such factors times a phase with re^2 + im^2 = 1 is exactly
        unit and is trusted without a product check; any other product is
        checked as a whole. The phase is read straight into numerators, and
        the factors' stored numerators are multiplied on integers
        (``clifford.integer_product``) and normalised once at the end.
        """
        if type(phase) is int:
            den, x, y = 1, phase, 0
        else:
            phase = GaussianRational.from_value(phase)
            den, (x, y) = integer_numerators([phase.re, phase.im])
        if x * x + y * y != den * den:
            raise ValueError("certificate phase is not a unit complex scalar")
        acc = {0: (x, y)}
        square_of = {1 << i: s for i, s in enumerate(algebra.squares)}  # grade-1 masks only
        trusted = True
        vectors = [v if isinstance(v, Multivector) else algebra.vector(v) for v in vectors]
        for v in vectors:  # every factor's algebra before any product
            if v.algebra is not algebra:
                raise ValueError(f"signature mismatch: a certificate factor of "
                                 f"{v.algebra.label} for {algebra.label}")
        for v in vectors:
            # one pass over the terms: unit vectors live in the real span of the
            # generators, and v * v is the scalar sum of squares[i] c_i^2 (cross
            # terms cancel); a factor off grade 1 is refused as such, complex or not
            norm = 0
            real = True
            for m, (x, y) in v.terms.items():
                s = square_of.get(m)
                if s is None:
                    raise ValueError("certificate factors must be grade-1")
                if y:
                    real = False
                if s < 0:
                    trusted = False
                norm += s * x * x
            if not real or norm != v.den * v.den:
                raise ValueError("certificate factor is not a real unit vector")
            den *= v.den
            acc = integer_product(algebra.flips, acc, v.terms)
        value = Multivector._reduced(algebra, acc, den)
        if trusted:
            return PinElement._trusted(value, len(vectors) & 1)
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


class OrthogonalAction:
    """Image of an exact Pin element under the twisted adjoint representation.

    The n x n matrix is ``numerators`` (row tuples of ints) over one ``den``
    in lowest terms, so equal matrices have equal fields. The constructor
    takes square rows of ints or Fractions; ``rows`` builds the Fractions back.
    """

    __slots__ = ("den", "numerators")

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"OrthogonalAction is square, not {n} rows of lengths "
                             f"{sorted({len(row) for row in rows})}")
        if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
            raise ValueError("OrthogonalAction holds exact data; a numeric rho is an ndarray")
        # the lcm of reduced denominators leaves no common factor
        self.den, ints = integer_numerators([x for row in rows for x in row])
        self.numerators = tuple(tuple(ints[i:i + n]) for i in range(0, n * n, n))

    @classmethod
    def _reduced(cls, den: int, numerators: tuple) -> "OrthogonalAction":
        """Action from integer rows over den > 0, divided by their gcd."""
        g = math.gcd(den, *[x for row in numerators for x in row])
        if g != 1:
            den //= g
            numerators = tuple(tuple(x // g for x in row) for row in numerators)
        self = object.__new__(cls)
        self.den = den
        self.numerators = numerators
        return self

    @property
    def rows(self) -> tuple:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.numerators)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def __repr__(self):
        return f"OrthogonalAction(rows={self.rows!r})"

    def as_numpy(self) -> np.ndarray:
        return np.array([[x / self.den for x in row] for row in self.numerators])

    def __matmul__(self, other: "OrthogonalAction") -> "OrthogonalAction":
        if self.dim != other.dim:
            raise ValueError(
                f"cannot compose OrthogonalActions of sizes {self.dim} and {other.dim}")
        cols = list(zip(*other.numerators))
        return OrthogonalAction._reduced(self.den * other.den, tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols) for row in self.numerators))

    def is_orthogonal(self) -> bool:
        """M^T M = 1 exactly, as integer column products against den^2."""
        cols = list(zip(*self.numerators))
        den2 = self.den * self.den
        return all(sum(map(operator.mul, cols[i], cols[j])) == (den2 if i == j else 0)
                   for i in range(len(cols)) for j in range(i, len(cols)))

    def __eq__(self, other):
        if not isinstance(other, OrthogonalAction):
            return NotImplemented
        return self.den == other.den and self.numerators == other.numerators


class DensePin:
    """Numeric element of Pin^c as its factors, g = phase * u_1 ... u_m.

    The constructor, the only way to build one, takes finite real arrays u_j
    of shape (n,), read as one array (the rows of the read-only ``vectors``),
    and a complex ``phase``; the parity is m mod 2. It multiplies the vectors
    out by vector products in real arithmetic, from the real scalar 1, and
    only then by the phase, the one complex step, into ``half``: a read-only
    complex array of length 2^(n-1) (1 when n = 0) holding the blades of the
    element's parity, blade m at index m >> 1; the blades of the other parity
    are identically zero and are not stored. ``values``, the read-only full
    array of length 2^n indexed by blade mask, is built from it on first
    read. The constructor measures ``unit_error``, the max-norm of
    g * star(g) - 1, on the real product in O(m n 2^(n-1)):
    star(g) = conj(phase) star(u_m) ... star(u_1), and star(u) is u with
    ``algebra.star_signs`` applied (u itself, with no multiply, when
    ``algebra.star_neg_mask`` is 0). An error above 100 * max(tol, 1e-9), or
    NaN, is refused. ``-g`` negates the phase and the half and shares the
    rest. ``meta`` holds report data only.
    """

    __slots__ = ("algebra", "vectors", "phase", "half", "parity", "unit_error", "meta",
                 "_values")

    def __init__(self, algebra: CliffordAlgebra, vectors, phase=1, *, meta=None):
        n = algebra.dim
        try:
            factors = np.array(vectors)
        except ValueError:  # ragged
            factors = None
        # an empty factor list reads as shape (0,)
        if (factors is None or factors.shape[1:] != (n,) and factors.shape != (0,)
                or factors.dtype.kind not in "iuf" or not np.isfinite(factors).all()):
            raise ValueError(f"a factor of a Pin element of {algebra.label} "
                             f"is a finite real array of shape ({n},)")
        factors = factors.astype(float, copy=False).reshape(len(factors), n)
        phase = complex(phase)
        # the scalar 1 as an even half (of length 1 when n = 0); each vector
        # product flips the parity
        product = np.zeros((1 << n) >> 1 or 1)
        product[0] = 1.0
        parity = 0
        for u in factors:
            product = algebra.half_mul_vector(product, u, parity)
            parity ^= 1
        # the phase is central, so it adds only |phase|^2 to g * star(g)
        unit = product * abs(phase) ** 2
        stars = factors[::-1]
        if algebra.star_neg_mask:
            stars = stars * np.array(algebra.star_signs, dtype=float)
        for u in stars:
            unit = algebra.half_mul_vector(unit, u, parity)
            parity ^= 1
        unit[0] -= 1.0  # the scalar blade, at the head of the even half
        unit_error = float(np.abs(unit).max())
        if not unit_error <= max(default_tol(), 1e-9) * 100:
            raise ValueError("Pin element must satisfy g * star(g) = 1 within tolerance")
        half = phase * product
        half.flags.writeable = False
        factors.flags.writeable = False
        self.algebra = algebra
        self.vectors = factors
        self.phase = phase
        self.half = half
        self.parity = len(factors) & 1
        self.unit_error = unit_error
        self.meta = meta or {}
        self._values = None

    @property
    def values(self) -> np.ndarray:
        """The read-only full array of length 2^n; the blades of the other parity are 0."""
        if self._values is None:
            values = np.zeros(1 << self.algebra.dim, dtype=complex)
            values[self.algebra._half_tables()[self.parity][0]] = self.half
            values.flags.writeable = False
            self._values = values
        return self._values

    def __neg__(self) -> "DensePin":
        """-g, with no product: -1 is central and |-phase| = |phase|, so the
        factors, the parity and the measured unit error carry over."""
        neg = copy.copy(self)
        neg.phase = -self.phase
        neg.half = -self.half
        neg.half.flags.writeable = False
        neg.meta = dict(self.meta)
        neg._values = None
        return neg


_NON_REAL = "twisted adjoint has non-real entries; invalid Pin element"
_OFF_GRADE = "twisted adjoint does not preserve grade 1; invalid Pin element"


def twisted_adjoint(g: PinElement | DensePin) -> OrthogonalAction | np.ndarray:
    """Matrix of rho(g): column k is (-1)^{|g|} g e_k g^{-1} in the generator basis.

    A ``PinElement`` is projected, not multiplied out, into an
    ``OrthogonalAction``; a ``DensePin`` takes the same projection in floats
    (``_twisted_adjoint_numeric``) into a float ndarray. Every blade is unitary
    (e_m* e_m = 1 in ``ccl``, ``kasparov`` and ``ccl_interleaved``), so
    <x* y>_0 is the l2 inner product <x, y> = sum_m conj(x_m) y_m, and since
    <.>_0 is a trace the e_i coefficient of g e_k g* is
    <e_i* g e_k g*>_0 = <(e_i g)* (g e_k)>_0 = <e_i g, g e_k>. Both e_i g and
    g e_k are signed relabellings of the support of g, so with g stored over
    one denominator D an entry is a sum of integer products over D^2.

    No tolerance is involved. An entry whose imaginary sum is nonzero is
    non-real. Grade 1 is preserved exactly when every column has sum
    num[i, k]^2 = D^4: for g* g = 1 the map x -> g x g* is an l2 isometry
    (<g x g*, g y g*> = <x, y> by the trace), so g e_k g* has norm 1, which
    its grade-1 part reaches only when nothing lies off grade 1. Each column
    is tested for non-real entries first, then off grade.
    """
    if isinstance(g, DensePin):
        return _twisted_adjoint_numeric(g)
    flips = g.algebra.flips
    den = g.value.den
    terms = [(m, flips[m], x, y) for m, (x, y) in g.value.terms.items()]
    # g e_k as (blade, re, im) and e_k g as blade -> (re, im), all over den;
    # the signs of m * e_k and e_k * m are bits of the memo of ``CliffordAlgebra.flip``
    lefts = []
    rights = []
    for k in range(g.algebra.dim):
        gen = 1 << k
        flip_gen = flips[gen]
        lefts.append([(m ^ gen, -x, -y) if (m & flip_gen).bit_count() & 1 else (m ^ gen, x, y)
                      for m, _, x, y in terms])
        rights.append({m ^ gen: (-x, -y) if f >> k & 1 else (x, y) for m, f, x, y in terms})
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
    return OrthogonalAction._reduced(den * den, tuple(zip(*cols)))


def _twisted_adjoint_numeric(g: DensePin) -> np.ndarray:
    """The projection of the exact path in floats, by gathers and two n x n contractions.

    Rows A[i] = e_i g and B[k] = g e_k are signed relabellings of g, and
    M = (-1)^{|g|} conj(A) B^T is the matrix of rho(g). The off-grade part of
    g e_k g* is measured linearly: g e_k - (-1)^{|g|} (rho(g) e_k) g is that
    part times g, and x -> x g is an l2 isometry since g g* = 1 was checked
    when g was built.
    """
    tol = default_tol()
    perm, right, left = g.algebra._half_tables()[g.parity][1:4]
    rows = g.half[perm]
    A = rows * left
    B = rows * right
    if g.parity == ODD:
        B = -B
    M = A.conj() @ B.T
    non_real = ~(np.abs(M.imag) <= 100 * tol).all(axis=0)
    off_grade = ~(np.abs(B - M.T @ A).max(axis=1) <= 100 * tol)
    bad = np.flatnonzero(non_real | off_grade)
    if bad.size:
        reason = _NON_REAL if non_real[bad[0]] else _OFF_GRADE
        raise ValueError(f"{reason} (numeric bound 100 * C2ALG_TOL = {100 * tol:.1e})")
    return M.real


def check_rho_real_equivariance(g: PinElement, rho: OrthogonalAction | None = None) -> bool:
    """Does rho(conj g) equal conj(rho(g))? (Real homomorphism property.)

    Conjugation on the orthogonal side is M -> D M D with
    D = diag(``algebra.bar_signs``): it negates the coordinates of the
    generators that bar negates. Pass a precomputed ``rho`` to reuse it.
    """
    _require_pin(g)
    lhs = twisted_adjoint(g.bar())
    if rho is None:
        rho = twisted_adjoint(g)
    d = g.algebra.bar_signs
    return lhs == OrthogonalAction._reduced(rho.den, tuple(
        tuple(x * (d[i] * d[j]) for j, x in enumerate(row))
        for i, row in enumerate(rho.numerators)))


def is_fixed_spinc(g: PinElement | DensePin) -> bool:
    """Membership of the C2-fixed subgroup: bar(g) = g, within tolerance for a DensePin."""
    if isinstance(g, DensePin):
        return _bar_gap(g) <= default_tol()
    return g.value.bar() == g.value


def _bar_gap(g: DensePin, conj_lift: DensePin | None = None) -> float:
    """max|c - bar(g)| over the blades, with c = conj_lift or g itself; NaN propagates."""
    c = g if conj_lift is None else conj_lift
    bar = g.algebra.half_bar(g.half, g.parity)
    if c.parity != g.parity:  # disjoint supports; bar keeps every magnitude
        return float(np.abs(np.concatenate((c.half, bar))).max())
    return float(np.abs(c.half - bar).max())


# -- Spin lift of special orthogonal matrices ---------------------------------------


def _reflect_inplace(A: np.ndarray, u: np.ndarray):
    A -= 2.0 * (u[:, None] * (u @ A))


def householder_factors(R: np.ndarray) -> list[np.ndarray]:
    """Factor R in SO(n) as refl(u_1) ... refl(u_m) with an even number of terms.

    R is refused unless it is orthogonal within tolerance with determinant
    +1. Columns are fixed one by one; a nearly-fixed column is skipped, and a
    column with nonnegative e_j component uses the two-reflection route
    through the stabilized midpoint (a + e_j)/|a + e_j|. No determinant is
    computed: once the reflections have taken R to I, det R = (-1)^m for m
    reflections, so an odd count is the determinant -1 refusal.
    """
    tol = default_tol()
    A = _read_matrix(R, float)
    if not _gram_is_identity(A, tol):
        raise ValueError("input is not orthogonal within tolerance")
    A = A.copy()  # reflected in place below; the caller's array is left alone
    eye = np.eye(A.shape[0])
    factors: list[np.ndarray] = []
    # math.sqrt(u @ u) has the bits of np.linalg.norm(u) for a real vector u
    for j, e in enumerate(eye):
        a = A[:, j]  # a view, read before A is reflected
        u = a - e
        if math.sqrt(u @ u) < 1e-13:
            continue
        if a[j] >= 0.0:
            u = a + e
            u /= math.sqrt(u @ u)
            _reflect_inplace(A, u)
            A[j] = -A[j]  # the reflection by e_j
            factors += [u, e]
        else:
            u /= math.sqrt(u @ u)
            _reflect_inplace(A, u)
            factors.append(u)
    if not float(np.abs(A - eye).max()) <= max(1e-11, 10 * tol):
        raise ValueError("reflection factorization failed to converge")
    if len(factors) % 2:  # det R = (-1)^(number of reflections)
        raise ValueError("determinant -1: odd Pin lift not handled by this operation")
    return factors


def _normalize_sign(g: DensePin, tol: float) -> int:
    """Sign that makes the lexicographically smallest blade of g above tol positive.

    Blades compare as their index words; the empty word comes first and e1
    comes first among the odd blades, so the head of the half, if above tol,
    is the lead and no scan is needed. A lead with zero real part (within
    tol) is made positive imaginary.
    """
    half = g.half
    if abs(half[0]) > tol:  # the scalar blade, or e1 in an odd half: the first word of either
        lead = 0
    else:
        masks = g.algebra._half_tables()[g.parity][0]
        support = masks[np.flatnonzero(np.abs(half) > tol)].tolist()
        if not support:
            return 1
        lead = min(support, key=lambda m: [i for i in range(m.bit_length()) if m >> i & 1]) >> 1
    c = complex(half[lead])
    return -1 if c.real < -tol or (abs(c.real) <= tol and c.imag < 0) else 1


def spin_lift(R) -> DensePin:
    """Even Pin element g with twisted_adjoint(g) = R, for R in SO(n).

    The branch sign is fixed so the lexicographically smallest blade with
    magnitude above tolerance has positive real part (ties broken by positive
    imaginary part). Matrices with determinant -1 are rejected. The returned
    element is g = sign * u_1 ... u_m for the Householder vectors u_j, with
    the sign as its phase; a sign of -1 negates the built element, with no
    second product.
    """
    factors = householder_factors(R)
    g = DensePin(ccl(len(R), 0), factors, meta={"reflections": len(factors)})
    return -g if _normalize_sign(g, default_tol()) < 0 else g


def rho_residual(g: DensePin, R) -> float:
    """Max-norm residual between twisted_adjoint(g) and an n x n target; NaN propagates."""
    n = g.algebra.dim
    if np.shape(R) != (n, n):
        raise ValueError(f"target matrix must have shape ({n}, {n})")
    A = _read_matrix(R, float, finite=False)
    return float(np.abs(twisted_adjoint(g) - A).max())


def unit_residual(g: DensePin) -> float:
    """Max-norm of g * star(g) - 1, measured once when g was built."""
    return g.unit_error


def lift_residuals(g: DensePin, target, conj_lift: DensePin | None = None) -> dict:
    """The residuals of a lift g of the orthogonal matrix ``target``, in report order.

    ``rho`` is ``rho_residual(g, target)``, ``unit`` is ``unit_residual(g)``
    and ``real_equivariance`` is max|c - bar(g)|, where c is ``conj_lift``
    (phi(conj U) for g = phi(U)) or, by default, g itself (a spin lift lands
    in the bar-fixed part). Every caller passes a residual by
    ``<= default_tol()``, so a NaN fails.
    """
    return {
        "rho": rho_residual(g, target),
        "unit": unit_residual(g),
        "real_equivariance": _bar_gap(g, conj_lift),
    }


# -- the Spin^c lift of unitary matrices ---------------------------------------------


def phi_lift(U, *, rng=None) -> DensePin:
    """Canonical Spin^c(n,n) lift of a unitary matrix, in the interleaved basis.

    With U = V diag(exp(i theta_j)) V* from ``linalg.unitary_eigh`` and w_k
    the columns of W = realify(V), the element is the central phase
    exp(i sum(theta_j)/2), whose square is det(U), times the plane rotors
    (c_j w_{2j-1} + s_j w_{2j}) w_{2j-1} = c_j - s_j w_{2j-1} w_{2j} with
    c_j = cos(theta_j/2), s_j = sin(theta_j/2); a rotor with theta_j = 0 is
    skipped, so there are at most 2n factors. Angles use the principal branch
    (-pi, pi]; the result does not depend on the eigendecomposition. Pass
    ``rng`` to decompose Q* U Q for a random unitary Q instead (used to
    exercise canonicity).
    """
    A = _read_matrix(U)
    n = A.shape[0]
    algebra = ccl_interleaved(n)
    if rng is None:
        V, thetas = _unitary_eigh(A)
    else:
        Q = random_unitary(rng, n)
        V, thetas = unitary_eigh(Q.conj().T @ A @ Q)
        V = Q @ V

    W = realify(V)
    rotors = []  # the vectors (c w_{2j-1} + s w_{2j}) w_{2j-1} of each plane rotor
    for j, theta in enumerate(thetas):
        c = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        if abs(s) < 1e-300 and c > 0:
            continue
        rotors += [c * W[:, 2 * j] + s * W[:, 2 * j + 1], W[:, 2 * j]]
    phase = complex(np.exp(1j * float(thetas.sum()) / 2.0))
    return DensePin(algebra, rotors, phase, meta={
        "thetas": [float(t) for t in thetas],
        "near_branch_cut": _near_branch_cut(thetas),
    })


# -- polynomial model of the i_V action ----------------------------------------------


def iv_model_action(g: PinElement, x: Multivector, f: MultiPoly):
    """(g, v (x) f) -> (g*v, f o rho(g)^{-1}) on the polynomial model of L^2(V)."""
    alg = _require_pin(g).algebra
    if x.algebra is not alg:
        raise ValueError("signature mismatch")
    if f.nvars != alg.dim:
        raise ValueError("variable-count mismatch")
    rho = twisted_adjoint(g)
    # rho^-1 = rho^T over the same den
    return g.value * x, f.compose_linear(list(zip(*rho.numerators)), rho.den)
