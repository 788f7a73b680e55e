import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from c2alg.clifford import CliffordAlgebra, Multivector, ccl, ccl_interleaved, kasparov
from c2alg.funcalc import alpha_conjugation_check
from c2alg import pin_spin
from c2alg.linalg import realify, unitary_eigh
from c2alg.pin_spin import (DensePin, PinElement, _twisted_adjoint_numeric,
                            check_rho_real_equivariance, householder_factors,
                            is_fixed_spinc, iv_model_action, lift_residuals, phi_lift,
                            rho_residual, spin_lift, twisted_adjoint, unit_residual)
from c2alg.scalars import GaussianRational, MultiPoly
from c2alg.verify import (_rng, rand_multivector, rand_pin, rand_polynomial, rational_phase,
                          rational_unit_vector)
from numpy_draws import random_special_orthogonal, random_unitary

I = GaussianRational.I


def _dist(values, expected) -> float:
    """Max-norm distance of two dense arrays; NaN propagates."""
    return float(np.max(np.abs(values - expected)))


def _floats(v: Multivector) -> np.ndarray:
    """The real coefficients of an exact grade-1 element, as a float array."""
    return v.to_dense()[1 << np.arange(v.algebra.dim)].real


def _terms(g: DensePin) -> dict:
    """Mask -> complex coefficient for every nonzero entry of the lift's half."""
    nonzero = np.flatnonzero(g.half)
    return dict(zip(g.masks[nonzero].tolist(), g.half[nonzero]))


def _half_dist(g: DensePin, expected: np.ndarray) -> float:
    """Max-norm distance of g's half from a full array indexed by blade mask.

    g has no blades of the other parity, so ``expected`` must be 0 on them.
    """
    assert not np.any(np.delete(expected, g.masks))
    return _dist(g.half, expected[g.masks])


def _scatter(g: DensePin) -> np.ndarray:
    """Oracle: the full array of length 2^n indexed by blade mask, 0 off g's parity."""
    values = np.zeros(1 << g.algebra.dim, dtype=complex)
    values[g.masks] = g.half
    return values


class TestPinElement:
    def test_identity(self):
        g = PinElement.identity(ccl(2, 0))
        assert g.is_even and g.value == ccl(2, 0).scalar(1)

    def test_non_homogeneous_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            PinElement(alg.scalar(1) + alg.generator(1))

    def test_non_unit_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            PinElement(alg.generator(1).scale(2))

    def test_certificate_rejects_non_unit_factor(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            PinElement.from_factors(alg, [alg.vector([1, 1])])

    def test_nan_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError, match="g \\* star\\(g\\) = 1"):
            DensePin(alg, [], complex(math.nan))
        # a NaN target gives a NaN residual, which fails every `<= tol` check
        R = np.eye(2)
        R[0, 1] = math.nan
        assert math.isnan(rho_residual(spin_lift(np.eye(2)), R))

    @pytest.mark.parametrize("phase", [2, GaussianRational(1, 1), 0])
    def test_certificate_rejects_non_unit_exact_phase(self, phase):
        alg = ccl(2, 0)
        for vectors in ([], [alg.generator(1)]):
            with pytest.raises(ValueError):
                PinElement.from_factors(alg, vectors, phase)

    def test_trusted_certificate_parity_and_unit(self):
        rng = _rng(26, "certificate")
        eps = ccl(2, 0)
        for alg in (ccl(3, 1), ccl(0, 4), ccl_interleaved(2), kasparov(2, 2)):
            for count in range(5):
                if alg.neg_square_mask:
                    # trusted factors of kasparov(2, 2) lie in the span of eps_1, eps_2
                    vectors = [alg.vector([c.coeff(1 << i) for i in range(2)] + [0, 0])
                               for c in (rational_unit_vector(rng, eps) for _ in range(count))]
                else:
                    vectors = [rational_unit_vector(rng, alg) for _ in range(count)]
                g = PinElement.from_factors(alg, vectors, rational_phase(rng))
                assert g.parity == count % 2 == g.value.parity()
                assert g.value * g.value.star() == alg.scalar(1)

    def test_certificate_checks_factors_off_the_positive_span(self):
        # v = 5/3 eps_1 + 4/3 e_1 squares to 25/9 - 16/9 = 1, yet
        # v v* = 41/9 - 40/9 eps_1 e_1, so v alone is not in Pin; v v = 1 is
        alg = kasparov(1, 1)
        v = alg.vector([Fraction(5, 3), Fraction(4, 3)])
        assert v * v == alg.scalar(1) and v * v.star() != alg.scalar(1)
        with pytest.raises(ValueError, match="g \\* star\\(g\\) = 1"):
            PinElement.from_factors(alg, [v])
        g = PinElement.from_factors(alg, [v, v])
        assert g.value == alg.scalar(1) and g.parity == 0

    def test_numeric_data_refused(self):
        # numeric elements are DensePins: PinElement holds exact data only, and
        # every float coefficient (a float after an exact one too) is refused
        # in GaussianRational.from_value before a PinElement exists
        alg = ccl(2, 0)
        message = "coefficients are exact \\(int, Fraction or GaussianRational\\), not float"
        for build in (lambda: PinElement(alg.scalar(1.0)),
                      lambda: PinElement(alg.from_terms({0: GaussianRational(Fraction(3, 5)),
                                                         3: 0.8})),
                      lambda: PinElement.from_factors(alg, [[0.6, 0.8]]),
                      lambda: PinElement.from_factors(alg, [alg.generator(1)], 1.0)):
            with pytest.raises(TypeError, match=message):
                build()

    def test_certificate_rejects_complex_vector(self):
        # (5/3)^2 + (4i/3)^2 = 1 but the vector is outside the real span
        alg = ccl(2, 0)
        v = alg.vector([Fraction(5, 3), GaussianRational(0, Fraction(4, 3))])
        assert v * v == alg.scalar(1)
        with pytest.raises(ValueError):
            PinElement.from_factors(alg, [v])

    def test_certificate_refusal_order(self):
        alg = ccl(2, 0)
        unit = alg.generator(1)
        # off grade 1 and complex: the grade is refused, wherever the terms sit
        for terms in ({1: GaussianRational.I, 3: 1}, {3: 1, 1: GaussianRational.I},
                      {3: GaussianRational.I}):
            with pytest.raises(ValueError, match="factors must be grade-1"):
                PinElement.from_factors(alg, [unit, alg.from_terms(terms)])
        # complex on grade 1 only: the unit check refuses it
        with pytest.raises(ValueError, match="factor is not a real unit vector"):
            PinElement.from_factors(alg, [alg.from_terms({1: GaussianRational.I})])
        # a bad phase is refused before a factor is read, even one that cannot be built
        with pytest.raises(ValueError, match="phase is not a unit complex scalar"):
            PinElement.from_factors(alg, [[0.6, 0.8], alg.scalar(1)], 2)


    @pytest.mark.parametrize("target, factor", [
        (ccl(2, 0), kasparov(1, 1).generator(1)),
        (ccl(3, 0), ccl(1, 0).generator(1)),
    ], ids=["kasparov(1,1)-in-ccl(2,0)", "ccl(1,0)-in-ccl(3,0)"])
    def test_certificate_refuses_a_factor_of_another_algebra(self, target, factor,
                                                             monkeypatch):
        # the grade-1 mask of the factor is also one of the target's, so only
        # its algebra tells it apart; it is refused before any product is taken
        def refuse(*args):
            raise AssertionError("a product was taken before the factor was refused")

        monkeypatch.setattr(pin_spin, "integer_product", refuse)
        for factors in ([factor], [target.generator(1), factor]):
            with pytest.raises(ValueError) as info:
                PinElement.from_factors(target, factors)
            message = str(info.value)
            assert message == (f"signature mismatch: a certificate factor of "
                               f"{factor.algebra.label} for {target.label}")
            assert "\n" not in message

    def test_exact_only_operations_refuse_a_dense_pin(self):
        g = spin_lift(np.eye(2))
        x = g.algebra.generator(1)
        for call in (lambda: check_rho_real_equivariance(g),
                     lambda: iv_model_action(g, x, MultiPoly(2, {(1, 0): Fraction(1)})),
                     lambda: alpha_conjugation_check(g, x, x)):
            with pytest.raises(ValueError, match="exact PinElement, not DensePin"):
                call()


class TestDensePin:
    def test_values_read_only_and_copied(self):
        alg = ccl(2, 0)
        source = np.array([1.0, 0.0])
        g = DensePin(alg, [source])
        source[0] = 2.0
        assert g.vectors[0][0] == 1.0 and g.masks[0] == 1 and g.half[0] == 1.0
        for array in (g.masks, g.half, g.vectors[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        assert unit_residual(g) == g.unit_error == 0.0
        assert g.phase == 1 and g.meta == {}

    @pytest.mark.parametrize("alg", [ccl(0, 0), ccl(1, 0), ccl(3, 2), kasparov(0, 3),
                                     ccl_interleaved(2)], ids=lambda a: a.label)
    def test_half_holds_the_one_parity(self, alg):
        rng = np.random.default_rng(alg.dim)
        n = alg.dim
        for m in range(4 if n else 1):  # no unit vector in n = 0
            vectors = [u / np.linalg.norm(u) for u in rng.standard_normal((m, n))]
            g = DensePin(alg, vectors, np.exp(0.3j))
            same = [k for k in range(1 << n) if k.bit_count() % 2 == g.parity]
            # the half is the blades of g's parity in mask order, and nothing else is stored
            assert g.masks.tolist() == same and g.half.shape == (len(same),)
            assert not hasattr(g, "values")
            h = -g
            assert h.vectors is g.vectors and h.masks is g.masks
            assert np.array_equal(h.half, -g.half)
            for array in (g.masks, g.half, g.vectors, h.half):
                assert not array.flags.writeable

    def test_masks_are_read_only_and_shared(self):
        # ``masks`` hands out the algebra's table: a write is refused and no later lift moves
        R = random_special_orthogonal(np.random.default_rng(12), 4)
        g = spin_lift(R)
        with pytest.raises(ValueError, match="read-only"):
            g.masks[1] = 0
        h = spin_lift(R)
        assert h.masks is g.masks and h.masks.tolist() == [0, 3, 5, 6, 9, 10, 12, 15]
        assert np.array_equal(h.half, g.half) and rho_residual(h, R) <= 1e-12

    def test_shape_checked(self):
        alg = ccl(2, 0)
        for u in (np.ones(3), np.ones((1, 2)), np.ones(1), 1.0, [1j, 0], ["1", "0"]):
            with pytest.raises(ValueError, match="finite real array of shape \\(2,\\)"):
                DensePin(alg, [u])
        # a ragged list and a bare vector get the same refusal, not numpy's error
        for vectors in ([[1.0, 0.0], [1.0]], np.array([1.0, 0.0]), [np.ones(2), np.ones((2, 2))]):
            with pytest.raises(ValueError, match="finite real array of shape \\(2,\\)"):
                DensePin(alg, vectors)

    def test_parity_is_factor_count_mod_2(self):
        alg = ccl(2, 0)
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        for factors in ([], [e1], [e1, e2], [e2, e1, e1]):
            assert DensePin(alg, factors).parity == len(factors) % 2

    def test_nan_factor_and_non_unit_phase_refused(self):
        alg = ccl(3, 0)
        with pytest.raises(ValueError, match="finite real array"):
            DensePin(alg, [[math.nan, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"g \* star\(g\) = 1"):
            DensePin(alg, [], 1.001)

    def test_unit_error_is_a_measurement(self):
        # star(u) is u with the star signs applied: e1 * star(e1) = 1 in
        # kasparov(0, 1) although e1 * e1 = -1, and for g = (e1 + e2) / sqrt(2)
        # in kasparov(1, 1), g * star(g) = 1 - e1 e2
        assert DensePin(kasparov(0, 1), [[1.0]]).unit_error == 0.0
        s = 1 / math.sqrt(2)
        assert DensePin(kasparov(2, 0), [[s, s]]).unit_error <= 1e-15
        with pytest.raises(ValueError, match=r"g \* star\(g\) = 1"):
            DensePin(kasparov(1, 1), [[s, s]])

    def test_negation_reuses_the_factors(self):
        s = 1 / math.sqrt(2)
        g = DensePin(ccl(3, 0), [[s, s, 0.0], [0.0, 0.6, 0.8]], 0.6 + 0.8j, meta={"k": 1})
        h = -g
        assert h.phase == -g.phase
        assert np.array_equal(h.half, -g.half) and h.masks is g.masks
        assert h.vectors is g.vectors
        assert h.parity == g.parity and h.unit_error == g.unit_error
        assert h.meta == g.meta and h.algebra is g.algebra
        for array in (h.masks, h.half):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0

    def test_wrong_target_shape_refused(self):
        g = spin_lift(np.eye(3))
        for R in ([[1.0]], np.ones(3), 1.0):
            with pytest.raises(ValueError, match="shape \\(3, 3\\)"):
                rho_residual(g, R)


class TestTwistedAdjoint:
    def test_unit_vector_is_reflection(self):
        alg = ccl(3, 0)
        g = PinElement.from_factors(alg, [alg.generator(1)])
        rho = twisted_adjoint(g)
        expect = ((Fraction(-1), Fraction(0), Fraction(0)),
                  (Fraction(0), Fraction(1), Fraction(0)),
                  (Fraction(0), Fraction(0), Fraction(1)))
        assert rho.rows == expect

    def test_identity_and_central_phase(self):
        alg = ccl(2, 0)
        ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert twisted_adjoint(PinElement.identity(alg)).rows == ident
        phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        g = PinElement.from_factors(alg, [], phase)
        assert twisted_adjoint(g).rows == ident

    def test_numeric_matches_exact(self):
        rng = _rng(25, "rho-numeric")
        for alg in (ccl(3, 0), ccl(2, 2), ccl(0, 3), ccl_interleaved(2)):
            for _ in range(8):
                vectors = [rational_unit_vector(rng, alg) for _ in range(rng.randint(0, 4))]
                phase = rational_phase(rng)
                exact = twisted_adjoint(PinElement.from_factors(alg, vectors, phase)).as_numpy()
                numeric = twisted_adjoint(DensePin(alg, [_floats(v) for v in vectors], phase))
                assert isinstance(numeric, np.ndarray)
                assert np.max(np.abs(numeric - exact)) <= 1e-12

    def test_unit_element_outside_pin_rejected(self):
        # c + i s e1e2e3e4 with c^2 + s^2 = 1 satisfies g * star(g) = 1, but
        # g e_k g* has an off-grade part of about 2s, of grade 3. At s = 1e-5
        # its squared norm (4e-10) is below 100 * tol, so only a test linear in
        # the off-grade part rejects it, at every algebra size. No phase times
        # a product of vectors is such an element, so it reaches the
        # projection as a stand-in with the attributes the projection reads.
        # (c, s) = ((1 - k^2), 2k) / (1 + k^2) is a rational point on the
        # unit circle: s = 4/5 at k = 1/2 and s ~ 1e-5 at k = 1/200000.
        for alg in (ccl(4, 0), ccl(10, 0), ccl_interleaved(2)):
            for k in (Fraction(1, 2), Fraction(1, 200000)):
                c, s = (1 - k * k) / (1 + k * k), 2 * k / (1 + k * k)
                value = alg.scalar(c) + alg.blade([1, 2, 3, 4]).scale(GaussianRational(0, s))
                assert value * value.star() == 1
                even = [m for m in range(1 << alg.dim) if m.bit_count() % 2 == 0]
                g = SimpleNamespace(algebra=alg, half=value.to_dense()[even], parity=0)
                with pytest.raises(ValueError, match="does not preserve grade 1"):
                    _twisted_adjoint_numeric(g)

    def test_non_unit_trusted_element_rejected(self):
        # g* is the inverse of g only when g g* = 1, which every DensePin was checked for
        with pytest.raises(ValueError, match=r"g \* star\(g\) = 1"):
            DensePin(ccl(3, 0), [], 1.001 + 0j)

    def test_homomorphism_exact(self):
        rng = _rng(21, "rho-hom")
        alg = ccl(2, 2)
        for _ in range(25):
            g = rand_pin(rng, alg, 4)
            h = rand_pin(rng, alg, 4)
            assert twisted_adjoint(g * h) == twisted_adjoint(g) @ twisted_adjoint(h)
            assert twisted_adjoint(g).is_orthogonal()


def _product_twisted_adjoint(g):
    """Rows of rho(g) from the sparse products g e_k g*, checked at every grade."""
    alg = g.algebra
    n = alg.dim
    cols = []
    for k in range(n):
        w = g.value * alg.generator(k + 1) * g.value.star()
        if g.parity:
            w = -w
        col = []
        for i in range(n):
            c = w.coeff(1 << i)
            if not c.is_real:
                raise ValueError("twisted adjoint has non-real entries; invalid Pin element")
            col.append(c.re)
        if w - alg.vector(col):
            raise ValueError("twisted adjoint does not preserve grade 1; invalid Pin element")
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _raise_message(fn, g):
    try:
        fn(g)
    except ValueError as exc:
        return str(exc)
    return None


class TestExactProjection:
    """The integer projection against the product formula it replaces."""

    def test_matches_products_on_random_elements(self):
        rng = _rng(27, "projection")
        algebras = [ccl(p, n - p) for n in range(1, 6) for p in range(n + 1)]
        for alg in algebras + [ccl_interleaved(2)]:
            for _ in range(6):
                g = rand_pin(rng, alg, 4)
                assert twisted_adjoint(g).rows == _product_twisted_adjoint(g)

    def test_matches_products_on_raw_kasparov_elements(self):
        # generator word x rational phase x unit vector in the eps_1 eps_2 plane
        rng = _rng(28, "projection-kasparov")
        alg = kasparov(2, 2)
        for _ in range(40):
            word = alg.blade([rng.randint(1, 4) for _ in range(rng.randint(0, 4))])
            u = rational_unit_vector(rng, ccl(2, 0))
            plane = alg.vector([u.coeff(1).re, u.coeff(2).re, 0, 0])
            value = word * plane.scale(rational_phase(rng))
            g = PinElement(value)
            assert twisted_adjoint(g).rows == _product_twisted_adjoint(g)

    @pytest.mark.parametrize("alg, text, message", [
        (ccl(4, 0), "3/5 + 4/5*i*e1e2e3e4", "does not preserve grade 1"),
        (ccl(4, 0), "-4/5*i*e1e3 - 3/5*e2e4", "does not preserve grade 1"),
        (ccl(2, 2), "-3/5*i*e4 - 4/5*e1e2e3", "does not preserve grade 1"),
        (kasparov(1, 2), "-4/5*i*e1 - 3/5*e2", "has non-real entries"),
        (kasparov(2, 2), "-4/5*i*e1e2e4 + 3/5*e2e3e4", "has non-real entries"),
    ])
    def test_unit_elements_outside_pin_rejected(self, alg, text, message):
        g = PinElement(alg.parse(text))
        with pytest.raises(ValueError, match=message):
            twisted_adjoint(g)
        assert _raise_message(twisted_adjoint, g) == _raise_message(_product_twisted_adjoint, g)

    def test_two_blade_units_agree_with_products(self):
        # (3/5) u e_a + (4/5) w e_b with u, w in {1, i}: every same-parity pair
        # of blades, many outside Pin, must give the same rows or the same error
        coeffs = [Fraction(3, 5), GaussianRational(0, Fraction(3, 5))]
        others = [Fraction(4, 5), GaussianRational(0, Fraction(4, 5))]
        for alg in (ccl(3, 1), kasparov(2, 2), ccl_interleaved(2)):
            size = 1 << alg.dim
            for a in range(size):
                for b in range(a + 1, size):
                    if (a ^ b).bit_count() & 1:
                        continue
                    for u in coeffs:
                        for w in others:
                            value = alg.from_terms({a: u, b: w})
                            if value * value.star() != alg.scalar(1):
                                continue
                            g = PinElement(value)
                            expected = _raise_message(_product_twisted_adjoint, g)
                            assert _raise_message(twisted_adjoint, g) == expected
                            if expected is None:
                                assert twisted_adjoint(g).rows == _product_twisted_adjoint(g)

    def test_product_counts(self, monkeypatch):
        # exact rho makes no Multivector product; from_factors one
        # accumulation per factor
        rng = _rng(29, "product-counts")
        alg = ccl(3, 2)
        g = rand_pin(rng, alg, 4)
        vectors = [rational_unit_vector(rng, alg) for _ in range(3)]
        calls = []
        original = Multivector.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Multivector, "__mul__", counting)
        twisted_adjoint(g)
        assert not calls
        PinElement.from_factors(alg, vectors, rational_phase(rng))
        assert len(calls) <= len(vectors)


class TestRhoRealEquivariance:
    def test_real_coefficients_trivial(self):
        alg = ccl(3, 0)
        g = PinElement.from_factors(alg, [rational_unit_vector(_rng(1, "x"), alg)])
        assert check_rho_real_equivariance(g)

    def test_sign_generator(self):
        alg = ccl(1, 1)
        g = PinElement.from_factors(alg, [alg.generator(2)])
        assert check_rho_real_equivariance(g)

    def test_random_products_exact(self):
        rng = _rng(22, "rho-real")
        for _ in range(40):
            p = rng.randint(0, 4)
            q = rng.randint(0, 4 - p)
            if p + q == 0:
                p = 1
            g = rand_pin(rng, ccl(p, q), 4)
            assert check_rho_real_equivariance(g)

    def test_interleaved_convention(self):
        rng = _rng(24, "rho-real-interleaved")
        alg = ccl_interleaved(2)
        for _ in range(20):
            g = rand_pin(rng, alg, 4)
            assert check_rho_real_equivariance(g)

    def test_kasparov_bar_is_trivial(self):
        # bar fixes every generator of C_(p,q), so rho(bar g) must equal rho(g)
        alg = kasparov(2, 2)
        rot = PinElement.from_factors(alg, [alg.vector([Fraction(3, 5), Fraction(4, 5), 0, 0]),
                                            alg.generator(1)])
        g = PinElement(alg.generator(3).scale(I)) * rot * PinElement(alg.generator(4).scale(I))
        assert check_rho_real_equivariance(g)
        assert twisted_adjoint(g.bar()) == twisted_adjoint(g)


class TestSpinLift:
    def test_identity(self):
        g = spin_lift(np.eye(3))
        assert g.parity == 0 and _half_dist(g, ccl(3, 0).scalar(1).to_dense()) < 1e-12

    def test_quarter_turn(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        g = spin_lift(R)
        alg = ccl(2, 0)
        s = 1 / math.sqrt(2)
        expected = s * (alg.scalar(1) - alg.blade([1, 2])).to_dense()
        assert g.parity == 0
        assert min(_half_dist(g, expected), _half_dist(g, -expected)) < 1e-12
        assert rho_residual(g, R) < 1e-12

    def test_deterministic_branch(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        a, b = spin_lift(R), spin_lift(R)
        assert a.parity == b.parity == 0
        assert np.max(np.abs(a.half - b.half)) == 0.0
        lead = a.half[0]  # the scalar blade
        assert lead.real > 0

    def test_determinant_minus_one_rejected(self):
        with pytest.raises(ValueError):
            spin_lift(np.diag([1.0, -1.0]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            spin_lift(np.diag([2.0, 0.5]))

    @pytest.mark.parametrize("R, message", [
        (np.diag([2.0, 0.5]), "input is not orthogonal within tolerance"),
        (np.diag([1.0, -1.0]), "determinant -1: odd Pin lift not handled by this operation"),
    ], ids=["non-orthogonal", "determinant-minus-one"])
    def test_factors_refuse_what_the_lift_refuses(self, R, message):
        # householder_factors is the lift's one reader, so it makes both refusals
        for routine in (householder_factors, spin_lift):
            with pytest.raises(ValueError, match=message):
                routine(R)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_odd_reflection_count_is_the_determinant_refusal(self, n):
        # det R = -1 is read from the odd number of reflections that take R to I
        R = random_special_orthogonal(np.random.default_rng(n), n)
        R[:, n - 1] = -R[:, n - 1]
        for routine in (householder_factors, spin_lift):
            with pytest.raises(ValueError, match="^determinant -1: odd Pin lift not handled "
                                                 "by this operation$"):
                routine(R)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        R = np.eye(3)
        R[1, 2] = bad
        for lift in (spin_lift, householder_factors,
                     lambda M: phi_lift(M.astype(complex))):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                lift(R)

    def test_near_identity_stability(self):
        theta = 1e-9
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        g = spin_lift(R)
        assert rho_residual(g, R) < 1e-12

    def test_half_turn_planes(self):
        # columns land on -e_j, exercising the single-reflection branch
        R = np.diag([-1.0, -1.0, 1.0])
        g = spin_lift(R)
        assert rho_residual(g, R) < 1e-12
        expected = ccl(3, 0).blade([1, 2]).to_dense()
        assert g.parity == 0
        assert min(_half_dist(g, expected), _half_dist(g, -expected)) < 1e-12

    def test_minus_identity_in_four_dimensions(self):
        R = -np.eye(4)
        g = spin_lift(R)
        assert rho_residual(g, R) < 1e-12
        assert {m.bit_count() for m in _terms(g)} == {4}

    def test_sign_of_lifts_without_scalar_part(self):
        # zero scalar part: the lead blade comes from the lexicographic scan
        assert _terms(spin_lift(-np.eye(4))) == {15: 1}
        assert _terms(spin_lift(np.diag([-1.0, -1.0, 1.0, 1.0]))) == {3: 1}

    def test_sign_matches_lexicographic_scan(self):
        # the lead is the smallest index word above tol, the empty word first
        nrng = np.random.default_rng(41)
        for n in range(2, 10):
            for _ in range(3):
                terms = _terms(spin_lift(random_special_orthogonal(nrng, n)))
                lead = min((m for m, c in terms.items() if abs(c) > 1e-9),
                           key=lambda m: [i for i in range(n) if m >> i & 1])
                assert terms[lead].real > 1e-9


class TestVectorProductsOnly:
    """A lift costs the vector products that build it and its unit check;
    its twisted adjoint and residuals add none."""

    @pytest.fixture
    def vector_products(self, monkeypatch):
        calls = []
        original = CliffordAlgebra.half_mul_vector

        def counting(self, a, u, parity):
            calls.append(self.dim)
            return original(self, a, u, parity)

        monkeypatch.setattr(CliffordAlgebra, "half_mul_vector", counting)
        return calls

    @pytest.mark.parametrize("n", [4, 9])
    def test_spin_lift_and_twisted_adjoint(self, n, vector_products):
        R = random_special_orthogonal(np.random.default_rng(n), n)
        g = spin_lift(R)
        built = len(vector_products)
        twisted_adjoint(g)
        rho_residual(g, R)
        unit_residual(g)
        assert len(vector_products) == built == 2 * len(g.vectors)

    @pytest.mark.parametrize("seed, sign", [(1, 1), (0, -1)])
    def test_spin_lift_builds_once(self, seed, sign, vector_products):
        # m vector products for g and m for its unit check; a sign of -1 adds none
        R = random_special_orthogonal(np.random.default_rng(seed), 4)
        g = spin_lift(R)
        rho_residual(g, R)
        unit_residual(g)
        assert g.phase == sign
        assert len(vector_products) == 2 * g.meta["reflections"]

    @pytest.mark.parametrize("n", [2, 4])
    def test_phi_lift(self, n, vector_products):
        U = random_unitary(np.random.default_rng(n), n)
        g = phi_lift(U)
        built = len(vector_products)
        rho_residual(g, realify(U))
        unit_residual(g)
        assert len(vector_products) == built
        assert set(vector_products) == {2 * n}


def _with_spectrum(nrng, angles):
    V = random_unitary(nrng, len(angles))
    return (V * np.exp(1j * np.asarray(angles))) @ V.conj().T


def _stress_unitaries(nrng):
    cases = [("I", np.eye(3, dtype=complex)), ("-I", -np.eye(3, dtype=complex)),
             ("4-cycle", np.roll(np.eye(4), 1, axis=0).astype(complex)),
             ("repeated diagonal", np.diag(np.exp(1j * np.array([0.7, -2.0, 0.7, -2.0]))))]
    for off in (0.0, 1e-12, 1e-8, 1e-4):
        cases.append((f"conjugate pair +{off}", _with_spectrum(nrng, [1.1, -1.1 + off, 0.3])))
    for d in (0.0, 1e-12, 1e-8, 1e-4):
        cases.append((f"pi/2 +- {d}", _with_spectrum(nrng, [math.pi / 2 + d, math.pi / 2 - d, -0.5])))
        cases.append((f"-1 from both sides {d}",
                      _with_spectrum(nrng, [math.pi - d, -math.pi + d, math.pi, 0.2])))
    for n in (2, 3, 4):
        O = random_special_orthogonal(nrng, n)
        S = (O * np.exp(1j * nrng.uniform(-math.pi, math.pi, n))) @ O.T
        K = 1e-9 * nrng.standard_normal((n, n))
        K = K - K.T
        cases.append((f"nearly symmetric n={n}", S @ (np.eye(n) + K + K @ K / 2)))
    return cases


def _conjugated_rotor_lift(U):
    """phi(U) as the plane rotors in e_{2j-1} e_{2j} conjugated by the spin
    lift L of realify(V): the factors of L, of each rotor, and of L reversed."""
    n = U.shape[0]
    V, thetas = unitary_eigh(U)
    L = spin_lift(realify(V))
    eye = np.eye(2 * n)
    rotor = []
    for j, theta in enumerate(thetas):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        if abs(s) < 1e-300 and c > 0:
            continue
        rotor += [c * eye[2 * j] + s * eye[2 * j + 1], eye[2 * j]]
    phase = np.exp(1j * float(np.sum(thetas)) / 2.0)
    return DensePin(ccl_interleaved(n), [*L.vectors, *rotor, *reversed(L.vectors)], phase)


def _phi_fixtures():
    nrng = np.random.default_rng(20)
    cases = [(f"U({n})-draw{k}", random_unitary(nrng, n)) for n in range(1, 9) for k in range(5)]
    cases += [("I_3", np.eye(3, dtype=complex)), ("-I_2", -np.eye(2, dtype=complex)),
              ("diag(-1,e^0.5i,-i)", np.diag(np.exp(1j * np.array([math.pi, 0.5, -math.pi / 2]))))]
    return [pytest.param(U, id=label) for label, U in cases]


class TestPhiFactors:
    """phi(U) is built from the columns of realify(V), two per rotor that is
    not skipped, and equals the conjugated-rotor form of the same lift."""

    @pytest.mark.parametrize("U", _phi_fixtures())
    def test_matches_the_conjugated_rotors(self, U):
        g = phi_lift(U)
        h = _conjugated_rotor_lift(U)
        assert g.parity == h.parity == 0
        assert np.max(np.abs(g.half - h.half)) <= 1e-14

    @pytest.mark.parametrize("U", _phi_fixtures())
    def test_two_factors_per_rotor(self, U):
        g = phi_lift(U)
        rotors = sum(1 for t in g.meta["thetas"]
                     if not (abs(math.sin(t / 2.0)) < 1e-300 and math.cos(t / 2.0) > 0))
        assert len(g.vectors) == 2 * rotors <= 2 * U.shape[0]


class TestPhiLift:
    def test_identity(self):
        g = phi_lift(np.eye(2))
        assert g.parity == 0 and _half_dist(g, ccl_interleaved(2).scalar(1).to_dense()) < 1e-12

    def test_multiplication_by_i(self):
        U = np.array([[1j]])
        g = phi_lift(U)
        assert rho_residual(g, realify(U)) < 1e-12
        assert abs(g.phase * g.phase - 1j) < 1e-12
        alg = ccl_interleaved(1)
        s = 1 / math.sqrt(2)
        phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        expected = phase * s * (alg.scalar(1) - alg.blade([1, 2])).to_dense()
        assert g.parity == 0 and _half_dist(g, expected) < 1e-12

    def test_homomorphism(self):
        nrng = np.random.default_rng(5)
        for n in (1, 2, 3):
            U = random_unitary(nrng, n)
            V = random_unitary(nrng, n)
            lhs = phi_lift(U @ V)
            # phi(U) phi(V) as the product of the factors of both lifts
            phi_u, phi_v = phi_lift(U), phi_lift(V)
            rhs = DensePin(ccl_interleaved(n), [*phi_u.vectors, *phi_v.vectors],
                           phi_u.phase * phi_v.phase)
            assert lhs.parity == rhs.parity == 0
            assert np.max(np.abs(lhs.half - rhs.half)) < 1e-9

    def test_diagonal_rotor_product_formula(self):
        # for diagonal input the lift is the plane-rotor product times the
        # half-determinant phase, independent of any eigenbasis choice
        a, b = 0.9, -2.3
        U = np.diag([np.exp(1j * a), np.exp(1j * b)])
        g = phi_lift(U)
        alg = ccl_interleaved(2)
        phase = np.exp(1j * (a + b) / 2)
        c1, s1, c2, s2 = math.cos(a / 2), math.sin(a / 2), math.cos(b / 2), math.sin(b / 2)
        e12, e34 = alg.blade([1, 2]), alg.blade([3, 4])
        # (c1 - s1 e1e2)(c2 - s2 e3e4), multiplied out
        expected = phase * (c1 * c2 * alg.scalar(1).to_dense() - s1 * c2 * e12.to_dense()
                            - c1 * s2 * e34.to_dense() + s1 * s2 * (e12 * e34).to_dense())
        assert g.parity == 0 and _half_dist(g, expected) < 1e-12

    def test_canonicity(self):
        # a random U(3), then spectra with repeated, clustered, conjugate or
        # branch-cut eigenvalues, and a nearly (not exactly) symmetric U
        nrng = np.random.default_rng(6)
        rng = random.Random(6)
        for label, U in [("random", random_unitary(nrng, 3))] + _stress_unitaries(nrng):
            g = phi_lift(U)
            assert rho_residual(g, realify(U)) <= 1e-9, label
            for _ in range(3):
                redo = phi_lift(U, rng=rng)
                assert redo.parity == g.parity == 0, label
                assert np.max(np.abs(g.half - redo.half)) <= 1e-9, label

    @pytest.mark.parametrize("rng, kind", [(np.random.default_rng(6), "Generator"),
                                           (random, "module"), (6, "int")],
                             ids=["numpy-generator", "random-module", "int"])
    def test_rng_other_than_random_instance_refused(self, monkeypatch, rng, kind):
        # one refusal naming random.Random, before the matrix is read
        def unreached(*args):
            raise AssertionError("work before the rng check")

        monkeypatch.setattr(pin_spin, "_read_matrix", unreached)
        with pytest.raises(ValueError, match=f"^rng must be a random\\.Random, not {kind}$"):
            phi_lift(np.eye(2), rng=rng)

    def test_branch_cut_flagged(self):
        g = phi_lift(np.array([[-1.0 + 0j]]))
        assert g.meta["near_branch_cut"]

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            phi_lift(np.diag([2.0 + 0j]))


def _phi_residuals(U) -> dict:
    """``lift_residuals`` of phi(U), with phi(conj U) as the conjugate lift."""
    U = np.asarray(U, dtype=complex)
    return lift_residuals(phi_lift(U), realify(U), phi_lift(np.conj(U)))


class TestPhiReal:
    def test_real_orthogonal_input(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert _phi_residuals(R)["real_equivariance"] <= 1e-9
        g = phi_lift(R)
        assert lift_residuals(g, realify(R))["real_equivariance"] < 1e-12

    def test_multiplication_by_i_both_sides(self):
        U = np.array([[1j]])
        lifted = phi_lift(np.conj(U))
        alg = ccl_interleaved(1)
        s = 1 / math.sqrt(2)
        phase = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
        expected = phase * s * (alg.scalar(1) + alg.blade([1, 2])).to_dense()
        assert lifted.parity == 0 and _half_dist(lifted, expected) < 1e-12
        assert _phi_residuals(U)["real_equivariance"] <= 1e-9

    def test_random_u2(self):
        nrng = np.random.default_rng(8)
        for _ in range(50):
            assert max(_phi_residuals(random_unitary(nrng, 2)).values()) <= 1e-9


class TestLiftResiduals:
    def test_keys_in_report_order_and_spin_lift_against_itself(self):
        R = random_special_orthogonal(np.random.default_rng(3), 5)
        g = spin_lift(R)
        res = lift_residuals(g, R)
        assert list(res) == ["rho", "unit", "real_equivariance"]
        assert res["rho"] == rho_residual(g, R) and res["unit"] == unit_residual(g)
        # conj_lift=None measures g against its own bar: a spin lift is bar-fixed
        assert res["real_equivariance"] == _dist(g.half, g.algebra.half_bar(g.half, g.parity))
        assert lift_residuals(g, R, g) == res
        assert max(res.values()) <= 1e-9

    def test_conj_lift_of_the_other_parity(self):
        # disjoint supports: the gap is the larger of |c| and |bar(g)| over the blades
        alg = ccl(2, 1)
        g = DensePin(alg, [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], np.exp(0.7j))
        c = DensePin(alg, [[0.0, 0.6, 0.8]])
        signs = np.array([alg.from_terms({m: 1}).bar().coeff(m).re for m in range(8)],
                         dtype=float)
        res = lift_residuals(g, twisted_adjoint(g), c)
        assert res["real_equivariance"] == _dist(_scatter(c), _scatter(g).conj() * signs) == 0.8

    def test_conj_lift_is_compared_with_the_bar_of_g(self):
        U = random_unitary(np.random.default_rng(4), 3)
        g, c = phi_lift(U), phi_lift(np.conj(U))
        res = lift_residuals(g, realify(U), c)
        assert list(res) == ["rho", "unit", "real_equivariance"]
        assert res["real_equivariance"] == _dist(c.half, g.algebra.half_bar(g.half, g.parity))
        # without the conjugate lift, phi(U) of a non-real U is not bar-fixed
        assert lift_residuals(g, realify(U))["real_equivariance"] > 1e-3

    @pytest.mark.parametrize("conj_algebra", [ccl_interleaved(2), ccl(3, 0)],
                             ids=lambda a: a.label)
    def test_conj_lift_of_another_algebra_refused(self, monkeypatch, conj_algebra):
        # a conj lift of the same size and one of another size: one refusal, before any
        # residual or bar is taken
        R = random_special_orthogonal(np.random.default_rng(2), 4)
        g = spin_lift(R)
        c = DensePin(conj_algebra, [])

        def unreached(*args):
            raise AssertionError("arithmetic before the algebra check")

        monkeypatch.setattr(pin_spin, "rho_residual", unreached)
        monkeypatch.setattr(CliffordAlgebra, "half_bar", unreached)
        message = f"signature mismatch: a conj lift in {conj_algebra.label} for a lift in CCl(4,0)"
        for call in (lambda: lift_residuals(g, R, c), lambda: pin_spin._bar_gap(g, c)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_nan_propagates(self):
        g = spin_lift(np.eye(2))
        assert math.isnan(lift_residuals(g, [[math.nan, 0.0], [0.0, 1.0]])["rho"])

    def test_target_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            lift_residuals(spin_lift(np.eye(2)), np.eye(3))


class TestFixedSpinc:
    def test_rational_rotation_lift(self):
        R = np.array([[0.6, -0.8], [0.8, 0.6]])
        assert is_fixed_spinc(spin_lift(R))

    def test_phase_not_fixed(self):
        alg = ccl(2, 0)
        phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        g = PinElement.from_factors(alg, [], phase)
        assert not is_fixed_spinc(g)

    def test_negative_branch_absorbed(self):
        alg = ccl(2, 0)
        s = 1 / math.sqrt(2)
        # e1 (-s e1 + s e2) = -s + s e1 e2
        assert is_fixed_spinc(DensePin(alg, [[1.0, 0.0], [-s, s]]))

    def test_fixed_means_bar_fixed(self):
        # bar negates e2 in ccl(1, 1): bar(e2) = -e2 although e2 has a real
        # coefficient, and bar(i e2) = i e2 although i e2 has an imaginary one
        alg = ccl(1, 1)
        e2 = alg.generator(2)
        assert not is_fixed_spinc(PinElement.from_factors(alg, [e2]))
        assert is_fixed_spinc(PinElement(e2.scale(I)))
        assert not is_fixed_spinc(DensePin(alg, [[0.0, 1.0]]))
        assert is_fixed_spinc(DensePin(alg, [[0.0, 1.0]], 1j))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_of_real_orthogonal_is_fixed(self, n):
        nrng = np.random.default_rng(60 + n)
        for R in (random_special_orthogonal(nrng, n),
                  random_special_orthogonal(nrng, n) @ np.diag([-1.0] + [1.0] * (n - 1))):
            g = phi_lift(R.astype(complex))
            assert g.algebra is ccl_interleaved(n)
            assert is_fixed_spinc(g)


class TestIvModelAction:
    def test_identity_action(self):
        alg = ccl(2, 0)
        g = PinElement.identity(alg)
        x = alg.generator(1)
        f = MultiPoly(2, {(1, 0): Fraction(1)})
        gx, gf = iv_model_action(g, x, f)
        assert gx == x and gf == f

    def test_reflection_substitution(self):
        alg = ccl(2, 0)
        g = PinElement.from_factors(alg, [alg.generator(1)])
        x = alg.generator(2)
        t1 = MultiPoly(2, {(1, 0): Fraction(1)})
        gx, gf = iv_model_action(g, x, t1)
        assert gx == alg.generator(1) * x
        assert gf == -t1

    def test_action_composition(self):
        rng = _rng(23, "iv")
        alg = ccl(2, 1)
        for _ in range(20):
            g = rand_pin(rng, alg, 3)
            h = rand_pin(rng, alg, 3)
            x = rand_multivector(rng, alg, 2)
            f = rand_polynomial(rng, 3)
            x1, f1 = iv_model_action(h, x, f)
            x2, f2 = iv_model_action(g, x1, f1)
            x3, f3 = iv_model_action(g * h, x, f)
            assert x2 == x3 and f2 == f3

    def test_variable_count_mismatch_rejected(self):
        alg = ccl(2, 0)
        with pytest.raises(ValueError):
            iv_model_action(PinElement.identity(alg), alg.zero(),
                            MultiPoly(3, {(1, 0, 0): Fraction(1)}))


class TestUnitResidual:
    def test_float_unit(self):
        g = spin_lift(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert unit_residual(g) < 1e-12
