import math
import random
from fractions import Fraction

import pytest

from c2alg.mackey import (MAX_PERIOD, AbelianGroup, FIXTURE_EXPECTED, MackeyPresentation,
                          check_mackey_axioms, fixed_point_obstruction,
                          fixture_presentations, map_well_defined, mat_mul,
                          obstruction_value, obstruction_chain_report)
from c2alg.verify import _rng, rand_fraction


# -- an oracle: the axioms as matrix differences, column by column ----------------------


def _shape_oracle(A):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(row) != cols for row in A):
        raise ValueError("ragged matrix")
    return rows, cols


def _mat_add_oracle(A, B):
    ra, ca = _shape_oracle(A)
    if (ra, ca) != _shape_oracle(B):
        raise ValueError("dimension mismatch in matrix sum")
    return [[A[i][j] + B[i][j] for j in range(ca)] for i in range(ra)]


def _identity_oracle(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _columns_vanish_oracle(M, group):
    rows, cols = _shape_oracle(M) if M else (group.ngens, 0)
    return all(group.is_zero([M[i][j] for i in range(rows)]) for j in range(cols))


def map_well_defined_oracle(A, src, dst):
    """d_i * column_i must vanish in dst for every torsion generator of src."""
    for i, d in enumerate(src.orders):
        if d == 0:
            continue
        for j, c in enumerate(dst.orders):
            entry = d * A[j][i]
            if (c == 0 and entry != 0) or (c != 0 and entry % c != 0):
                return False
    return True


def axiom_verdicts_oracle(M):
    """Verdicts of axioms (1)-(4): the difference of the two sides has vanishing columns."""
    n_e, n_c2 = M.m_e.ngens, M.m_c2.ngens

    def vanishes(A, B, group):
        return _columns_vanish_oracle(_mat_add_oracle(A, [[-x for x in row] for row in B]), group)

    return [
        vanishes(mat_mul(M.conj, M.res, n_c2), M.res, M.m_e),
        vanishes(mat_mul(M.tr, M.conj, n_e), M.tr, M.m_c2),
        vanishes(mat_mul(M.conj, M.conj, n_e), _identity_oracle(n_e), M.m_e),
        vanishes(mat_mul(M.res, M.tr, n_e), _mat_add_oracle(_identity_oracle(n_e), M.conj),
                 M.m_e),
    ]


def random_presentation(rng):
    """Free rank 0-2 and up to two torsion orders 2-4 per group, entries -3..3."""
    def group():
        torsion = [rng.randint(2, 4) for _ in range(rng.randint(0, 2))]
        return AbelianGroup(rng.randint(0, 2), torsion)

    def matrix(rows, cols):
        return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]

    m_c2, m_e = group(), group()
    return MackeyPresentation(m_c2, m_e, matrix(m_e.ngens, m_c2.ngens),
                              matrix(m_c2.ngens, m_e.ngens), matrix(m_e.ngens, m_e.ngens))


class TestAbelianGroup:
    def test_reduce(self):
        g = AbelianGroup(1, [4])
        assert g.reduce([5, 7]) == (5, 3)
        assert g.is_zero([0, 8])

    def test_bad_torsion_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, [1])

    @pytest.mark.parametrize("rank, torsion", [(0, [2.5]), (1.0, []), (0, [Fraction(4)]),
                                               (True, []), (0, [2, False])])
    def test_non_integer_refused(self, rank, torsion):
        # 2.5 is refused, not truncated to Z/2; a bool is not an integer, so True is not Z
        with pytest.raises(ValueError, match="rank and torsion orders must be integers"):
            AbelianGroup(rank, torsion)

    def test_map_well_defined(self):
        z4 = AbelianGroup(0, [4])
        z2 = AbelianGroup(0, [2])
        # Z/4 -> Z/2 reduction is fine; Z/2 -> Z/4 by 1 is not
        assert map_well_defined([[1]], z4, z2)
        assert not map_well_defined([[1]], z2, z4)
        assert map_well_defined([[2]], z2, z4)
        # nothing maps a torsion class into Z except zero
        z = AbelianGroup(1)
        assert not map_well_defined([[1]], z2, z)
        assert map_well_defined([[0]], z2, z)


class TestAxioms:
    def test_burnside_like_passes(self):
        report = check_mackey_axioms(fixture_presentations()["burnside_like"])
        assert report.all_passed
        assert all(a.passed for a in report.axioms)

    def test_broken_transfer_fails_axiom_four_only(self):
        report = check_mackey_axioms(fixture_presentations()["broken_transfer"])
        assert not report.all_passed
        assert [a.passed for a in report.axioms] == [True, True, True, False]

    def test_diagonal_swap_passes(self):
        fixture = fixture_presentations()["diagonal_swap"]
        report = check_mackey_axioms(fixture)
        assert report.all_passed
        # res(tr) = [[1,1],[1,1]] = id + swap, checked per generator
        assert mat_mul(fixture.res, fixture.tr, 2) == [[1, 1], [1, 1]]

    def test_fixture_pattern(self):
        for name, fixture in fixture_presentations().items():
            assert check_mackey_axioms(fixture).all_passed == FIXTURE_EXPECTED[name]

    def test_res_tr_law_on_every_generator(self):
        for name, fixture in fixture_presentations().items():
            if not FIXTURE_EXPECTED[name]:
                continue
            n = fixture.m_e.ngens
            res_tr = mat_mul(fixture.res, fixture.tr, n)
            for j in range(n):
                column = [res_tr[i][j] - (1 if i == j else 0) - fixture.conj[i][j]
                          for i in range(n)]
                assert fixture.m_e.is_zero(column)

    def test_dimension_mismatch_rejected(self):
        z = AbelianGroup(1)
        with pytest.raises(ValueError):
            MackeyPresentation(z, z, [[1], [0]], [[2]], [[1]])
        # [] is a matrix with no rows, never a 1 x 1 one
        with pytest.raises(ValueError, match="res: got 0x1, want 1x1"):
            MackeyPresentation(AbelianGroup(0, [2]), AbelianGroup(1), [], [[0]], [[1]])
        with pytest.raises(ValueError, match="shape"):
            map_well_defined([], AbelianGroup(0, [2]), AbelianGroup(1))

    def test_non_integer_entries_refused(self):
        # res = 1/2 with tr = 4, conj = 1 would pass every axiom: res(tr) = 2 = 1 + 1
        z = AbelianGroup(1)
        with pytest.raises(ValueError, match="entries of res must be integers, got Fraction"):
            MackeyPresentation(z, z, [[Fraction(1, 2)]], [[4]], [[1]])
        with pytest.raises(ValueError, match="entries of tr must be integers"):
            MackeyPresentation(z, z, [[1]], [[2.0]], [[1]])
        with pytest.raises(ValueError, match="entries of conj must be integers"):
            MackeyPresentation(z, z, [[1]], [[2]], [["1"]])

    @pytest.mark.parametrize("slot", ["res", "tr", "conj"])
    def test_boolean_entry_refused(self, slot):
        z = AbelianGroup(1)
        maps = {"res": [[1]], "tr": [[2]], "conj": [[1]]}
        maps[slot] = [[True]]
        with pytest.raises(ValueError, match=f"entries of {slot} must be integers, got True"):
            MackeyPresentation(z, z, maps["res"], maps["tr"], maps["conj"])

    def test_trivial_underlying_group(self):
        # m_e = 0: res and conj have no rows, tr is 1 x 0
        fixture = MackeyPresentation(AbelianGroup(1), AbelianGroup(0), [], [[]], [])
        assert check_mackey_axioms(fixture).all_passed

    def test_trivial_fixed_points(self):
        # pi_6 KU_R: m_c2 = 0 and m_e = Z with conj = -1, so res is 1 x 0 and tr 0 x 1,
        # and res(tr) is the 1 x 1 zero matrix, equal to id + conj
        fixture = MackeyPresentation(AbelianGroup(0), AbelianGroup(1), [[]], [], [[-1]])
        report = check_mackey_axioms(fixture)
        assert report.all_passed
        # with conj = 1, y + conj(y) = 2y is not res(tr(y)) = 0
        fixture = MackeyPresentation(AbelianGroup(0), AbelianGroup(1), [[]], [], [[1]])
        assert [a.passed for a in check_mackey_axioms(fixture).axioms] == [True, True, True,
                                                                           False]

    def test_product_shape(self):
        # the column count comes from the caller: a 1 x 0 times a 0 x 1 matrix is [[0]]
        assert mat_mul([[]], [], 1) == [[0]]
        assert mat_mul([], [[1, 2]], 2) == []
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_mul([[1, 2]], [[1], [1]], 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_mul([[1]], [[1, 2]], 1)

    def test_random_presentations_match_the_matrix_difference_oracle(self):
        rng = random.Random(20261020)
        seen = set()
        for case in range(2000):
            M = random_presentation(rng)
            report = check_mackey_axioms(M)
            verdicts = axiom_verdicts_oracle(M)
            assert [a.passed for a in report.axioms] == verdicts, case
            well = {"res": map_well_defined_oracle(M.res, M.m_c2, M.m_e),
                    "tr": map_well_defined_oracle(M.tr, M.m_e, M.m_c2),
                    "conj": map_well_defined_oracle(M.conj, M.m_e, M.m_e)}
            assert report.well_defined == well, case
            for name, src, dst in (("res", M.m_c2, M.m_e), ("tr", M.m_e, M.m_c2),
                                   ("conj", M.m_e, M.m_e)):
                assert map_well_defined(getattr(M, name), src, dst) == well[name], case
            seen.update((k, v) for k, v in enumerate(verdicts + list(well.values())))
            seen.add(("zero group", M.m_e.ngens * M.m_c2.ngens == 0))
        # every verdict is seen both ways, and zero groups are among the cases
        assert seen == {(k, v) for k in range(7) for v in (True, False)} | {
            ("zero group", True), ("zero group", False)}

    def test_torsion_aware_comparison(self):
        # res(tr) = id + conj can hold modulo torsion without integer equality
        z2 = AbelianGroup(0, [2])
        fixture = MackeyPresentation(z2, z2, [[1]], [[2]], [[1]])
        report = check_mackey_axioms(fixture)
        # res(tr) = 2 = 0 mod 2, id + conj = 2 = 0 mod 2
        assert report.all_passed


class TestObstruction:
    def test_reference_value(self):
        cert = fixed_point_obstruction(Fraction(-1, 8))
        assert cert.period == 4
        assert cert.residues == [Fraction(1, 32), Fraction(9, 32),
                                 Fraction(17, 32), Fraction(25, 32)]
        assert cert.obstructed
        assert cert.to_json()["verdict"] == "obstructed"

    def test_integral_genus_witness(self):
        cert = fixed_point_obstruction(0)
        assert cert.witness == 0 and not cert.obstructed

    def test_one_half(self):
        cert = fixed_point_obstruction(Fraction(1, 2))
        # 2q = 1 so one residue class; f(m) = 1/2 - m + m^2 always has part 1/2
        assert cert.obstructed
        assert set(cert.residues) == {Fraction(1, 2)}
        for m in range(-4, 5):
            value = obstruction_value(Fraction(1, 2), m)
            assert value - int(value) in (Fraction(1, 2), Fraction(-1, 2))

    def test_integer_shift_stability(self):
        rng = _rng(41, "obstruction")
        for _ in range(60):
            q = rand_fraction(rng, 9, 16)
            k = rng.randint(-4, 4)
            a = fixed_point_obstruction(q)
            b = fixed_point_obstruction(q + k)
            assert a.obstructed == b.obstructed
            assert sorted(a.residues) == sorted(b.residues)

    def test_periodicity(self):
        rng = _rng(42, "period")
        for _ in range(40):
            q = rand_fraction(rng, 9, 16)
            period = fixed_point_obstruction(q).period
            m = rng.randint(-10, 10)
            assert (obstruction_value(q, m + period) - obstruction_value(q, m)).denominator == 1

    def test_certificate_invariants(self):
        rng = _rng(43, "cert")
        for _ in range(40):
            q = rand_fraction(rng, 9, 16)
            cert = fixed_point_obstruction(q)
            assert cert.period == (2 * q).denominator
            assert len(cert.residues) == cert.period
            assert cert.obstructed == all(r != 0 for r in cert.residues)

    def test_residues_match_the_fractional_part_of_the_value(self):
        # every q = a/b with |a| <= 40, b <= 30, integral and negative ones included
        for a in range(-40, 41):
            for b in range(1, 31):
                q = Fraction(a, b)
                cert = fixed_point_obstruction(q)
                values = [obstruction_value(q, m) for m in range(cert.period)]
                expected = [v - math.floor(v) for v in values]
                assert cert.residues == expected, q
                assert cert.witness == next(
                    (m for m, r in enumerate(expected) if r == 0), None), q

    def test_period_above_the_cap_is_refused(self):
        assert fixed_point_obstruction(Fraction(1, 2 * MAX_PERIOD)).period == MAX_PERIOD
        for q in (Fraction(1, 2 * MAX_PERIOD + 2), Fraction(1, 10**9), Fraction(1, 1000000007)):
            with pytest.raises(ValueError, match="exceeds the supported maximum"):
                fixed_point_obstruction(q)


class TestObstructionChainReport:
    def test_default_chain(self):
        report = obstruction_chain_report()
        assert report["gamma"]["ahat"] == "-1/8"
        assert report["alpha"]["ahat"] == "1/64"
        assert report["certificate"]["period"] == 4
        assert report["obstructed"]
        assert not report["genus_overridden"]

    def test_override_zero_gives_witness(self):
        report = obstruction_chain_report(genus_override=0)
        assert not report["obstructed"]
        assert report["certificate"]["witness"] == 0
        assert report["genus_overridden"]

    def test_override_three_eighths(self):
        report = obstruction_chain_report(genus_override=Fraction(-3, 8))
        cert = report["certificate"]
        assert cert["period"] == 4
        assert cert["residues"] == ["9/32", "1/32", "25/32", "17/32"]
        assert report["obstructed"]
