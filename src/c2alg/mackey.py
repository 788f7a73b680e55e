"""C2-Mackey functor presentations and the fixed-point integrality obstruction.

Groups are finitely generated abelian, presented by a free rank and a torsion
list, so relation matrices are diagonal and well-definedness of an integer
matrix reduces to divisibility conditions. The obstruction procedure decides,
for a rational genus value q of a degree-4 class, whether some integer m makes
2q^2 - 2qm + m^2 integral; the restriction-transfer law res(tr(y)) = y + conj(y)
forces exactly this quantity to be integral when the fixed points exist.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import rational_to_string


def _require_integers(values, what: str):
    """Refuse a value that is not an integer, rather than truncate it; a bool is not one."""
    for v in values:
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            raise ValueError(f"{what} must be integers, got {v!r}")


class AbelianGroup:
    """Z^free_rank plus cyclic factors Z/d for d in torsion."""

    __slots__ = ("free_rank", "torsion", "orders")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        torsion = tuple(torsion)
        _require_integers((free_rank, *torsion), "rank and torsion orders")
        if free_rank < 0:
            raise ValueError("negative free rank")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion
        self.orders = (0,) * free_rank + torsion

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ngens:
            raise ValueError("vector length mismatch")
        return tuple(v % d if d else v for v, d in zip(vec, self.orders))

    def is_zero(self, vec: Sequence[int]) -> bool:
        return all(v == 0 for v in self.reduce(vec))

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders


def _mat_shape(A) -> tuple[int, int]:
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(row) != cols for row in A):
        raise ValueError("ragged matrix")
    return rows, cols


def mat_mul(A, B, cols: int):
    """A B with ``cols`` columns: [] has no rows and any column count, so the
    column count of the product comes from the caller."""
    ra, ca = _mat_shape(A)
    rb, cb = _mat_shape(B)
    if (ra and ca != rb) or (rb and cb != cols):
        raise ValueError("dimension mismatch in matrix product")
    return [[sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cols)] for i in range(ra)]


def map_well_defined(A, src: AbelianGroup, dst: AbelianGroup) -> bool:
    """Does the integer matrix descend to a homomorphism src -> dst?

    With diagonal relation matrices the Smith-normal-form condition reduces
    to: d_i * column_i must vanish in dst for every torsion generator.
    """
    rows, cols = _mat_shape(A) if A else (0, src.ngens)
    if rows != dst.ngens or cols != src.ngens:
        raise ValueError("matrix shape does not match the groups")
    return all(dst.is_zero([d * row[i] for row in A]) for i, d in enumerate(src.orders) if d)


@dataclass
class MackeyPresentation:
    """Tabulated res/tr/conjugation data on finitely generated abelian groups."""

    m_c2: AbelianGroup
    m_e: AbelianGroup
    res: list  # m_e.ngens x m_c2.ngens
    tr: list   # m_c2.ngens x m_e.ngens
    conj: list  # m_e.ngens x m_e.ngens

    def __post_init__(self):
        checks = [
            (self.res, self.m_e.ngens, self.m_c2.ngens, "res"),
            (self.tr, self.m_c2.ngens, self.m_e.ngens, "tr"),
            (self.conj, self.m_e.ngens, self.m_e.ngens, "conj"),
        ]
        for M, rows, cols, name in checks:
            r, c = _mat_shape(M) if M else (0, cols)
            if r != rows or c != cols:
                raise ValueError(f"dimension mismatch in {name}: got {r}x{c}, want {rows}x{cols}")
            _require_integers((x for row in M for x in row), f"entries of {name}")


@dataclass
class AxiomResult:
    name: str
    passed: bool
    detail: str


@dataclass
class MackeyReport:
    axioms: list
    well_defined: dict

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.axioms) and all(self.well_defined.values())

    def to_json(self) -> dict:
        return {
            "axioms": [
                {"name": a.name, "passed": a.passed, "detail": a.detail}
                for a in self.axioms
            ],
            "well_defined": dict(self.well_defined),
            "all_passed": self.all_passed,
        }


def check_mackey_axioms(M: MackeyPresentation) -> MackeyReport:
    """Verify axioms (1)-(4) on every generator.

    (1) conj(res(x)) = res(x); (2) tr(conj(y)) = tr(y); (3) conj(conj(y)) = y;
    (4) res(tr(y)) = y + conj(y).
    """
    well = {
        "res": map_well_defined(M.res, M.m_c2, M.m_e),
        "tr": map_well_defined(M.tr, M.m_e, M.m_c2),
        "conj": map_well_defined(M.conj, M.m_e, M.m_e),
    }
    results = []

    def axiom(name, group, lhs, rhs, detail):
        # generator j goes to column j of lhs and to rhs(i, j) in row i; the
        # images agree when their difference is zero in the target group
        ok = all(group.is_zero([row[j] - rhs(i, j) for i, row in enumerate(lhs)])
                 for j in range(len(lhs[0]) if lhs else 0))
        results.append(AxiomResult(name, ok, detail))

    # product shapes come from the groups: with no generators a factor is [] or [[]]
    n_e, n_c2 = M.m_e.ngens, M.m_c2.ngens
    axiom("conj_res_eq_res", M.m_e, mat_mul(M.conj, M.res, n_c2), lambda i, j: M.res[i][j],
          "restrictions are conjugation-fixed")
    axiom("tr_conj_eq_tr", M.m_c2, mat_mul(M.tr, M.conj, n_e), lambda i, j: M.tr[i][j],
          "transfer is conjugation-invariant")
    axiom("conj_involution", M.m_e, mat_mul(M.conj, M.conj, n_e), lambda i, j: i == j,
          "conjugation squares to the identity")
    axiom("res_tr_eq_id_plus_conj", M.m_e, mat_mul(M.res, M.tr, n_e),
          lambda i, j: (i == j) + M.conj[i][j], "res(tr(y)) = y + conj(y) on every generator")
    return MackeyReport(results, well)


def fixture_presentations() -> dict[str, MackeyPresentation]:
    """The three reference presentations used by the verification suite."""
    z = AbelianGroup(1)
    z2 = AbelianGroup(2)
    return {
        "burnside_like": MackeyPresentation(z, z, [[1]], [[2]], [[1]]),
        "broken_transfer": MackeyPresentation(z, z, [[1]], [[1]], [[1]]),
        "diagonal_swap": MackeyPresentation(
            z, z2, [[1], [1]], [[1, 1]], [[0, 1], [1, 0]]),
    }


FIXTURE_EXPECTED = {
    "burnside_like": True,
    "broken_transfer": False,
    "diagonal_swap": True,
}


# -- the integrality obstruction ------------------------------------------------------

# Largest residue period den(2q) that ``fixed_point_obstruction`` tabulates. The
# table holds one Fraction per residue: on a 2-vCPU Xeon VM the cold
# `obstruction --genus 1/99991` command takes 0.6 s and 47 MiB, while a period
# of 10^9 would not end.
MAX_PERIOD = 10**5


@dataclass
class ObstructionCertificate:
    """Residue table of 2q^2 - 2qm + m^2 over one full period of m."""

    q: Fraction
    period: int
    residues: list
    witness: int | None

    @property
    def obstructed(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else f"witness(m={self.witness})"

    def to_json(self) -> dict:
        return {
            "q": rational_to_string(self.q),
            "period": self.period,
            "residues": [rational_to_string(r) for r in self.residues],
            "verdict": "obstructed" if self.obstructed else "witness",
            "witness": self.witness,
        }


def obstruction_value(q: Fraction, m: int) -> Fraction:
    """2q^2 - 2qm + m^2 = q^2 + (m-q)^2: the genus of alpha + conj(alpha)."""
    return 2 * q * q - 2 * q * m + m * m


def fixed_point_obstruction(q) -> ObstructionCertificate:
    """Decide whether any integer m makes 2q^2 - 2qm + m^2 an integer.

    The residues are periodic in m with period den(2q); one full period is
    tabulated, and a period above ``MAX_PERIOD`` raises ValueError. No
    vanishing residue means the obstruction holds. With q = a/b in lowest
    terms the value is (2a^2 - 2abm + m^2 b^2) / b^2, so the residue at m is
    (2a^2 - 2abm) mod b^2, over b^2.
    """
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    period = b // math.gcd(2, b)  # den(2q)
    if period > MAX_PERIOD:
        raise ValueError(f"residue period of a genus with a {len(str(b))}-digit denominator "
                         f"exceeds the supported maximum {MAX_PERIOD}")
    # periodicity: f(m + period) - f(m) = period*(2m + period) - 2q*period is integral
    if 2 * a * period % b:
        raise AssertionError("periodicity witness failed")
    b2 = b * b
    nums = [(2 * a * a - 2 * a * b * m) % b2 for m in range(period)]
    witness = nums.index(0) if 0 in nums else None
    return ObstructionCertificate(q, period, [Fraction(r, b2) for r in nums], witness)


def obstruction_chain_report(genus_override=None) -> dict:
    """Full obstruction chain for the degree-4 projective generator.

    Recomputes the A-hat value of the generator and of its square through the
    genus machinery, feeds the value into the residue enumeration, and fails
    loudly if any recomputed link deviates from its known value. Passing
    ``genus_override`` replaces the genus value (control runs); the report
    flags the override.
    """
    from .genus import ahat_sequence, cp_projective_data, genus_evaluate, product_data

    gamma = cp_projective_data(2)
    seq = ahat_sequence()
    computed = genus_evaluate(seq, gamma)
    alpha = product_data(gamma, gamma)
    alpha_direct = genus_evaluate(seq, alpha)

    if genus_override is None:
        q = computed
        if q != Fraction(-1, 8):
            raise ArithmeticError(f"genus of the degree-4 generator computed as {q}, expected -1/8")
        if alpha_direct != q * q:
            raise ArithmeticError(
                f"genus of the squared generator computed as {alpha_direct}, expected {q * q}")
    else:
        q = Fraction(genus_override)

    certificate = fixed_point_obstruction(q)
    if genus_override is None and not certificate.obstructed:
        raise ArithmeticError("expected the default chain to be obstructed")

    return {
        "gamma": {
            "description": "degree-4 projective generator",
            "char_data": gamma.to_json(),
            "ahat": rational_to_string(computed),
        },
        "genus_value_used": rational_to_string(q),
        "genus_overridden": genus_override is not None,
        "hypothesis": f"ahat(conj gamma) = {rational_to_string(-q)} + n for some integer n",
        "alpha": {
            "description": "square of the generator",
            "char_data": alpha.to_json(),
            "ahat": rational_to_string(alpha_direct),
        },
        "sum_formula": "ahat(alpha + conj alpha) = 2q^2 - 2qn + n^2",
        "certificate": certificate.to_json(),
        "obstructed": certificate.obstructed,
    }
