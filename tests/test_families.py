"""Operator-family construction, evaluation, adjoints, and pole handling."""

from fractions import Fraction

import numpy as np
import pytest

from holoq.conformal import curvature, inner, laplacian
from holoq.families import FieldPoly, LambdaOperator, PoleError, build_P, build_T
from holoq.grid import TorusChart
from holoq.lambda_algebra import LambdaPoly
from holoq.presets import preset_phi


def bundle(n=4, size=32, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


def ones(b):
    return np.ones(b.chart.shape)


class TestConstruction:
    def test_unsupported_order(self):
        with pytest.raises(NotImplementedError):
            build_T(6, 3)

    @pytest.mark.parametrize("n,N", [(4, 1), (4, 2), (5, 1), (6, 2)])
    def test_normalized_family_is_polynomial(self, n, N):
        assert build_P(n, N).is_polynomial()

    def test_identity_operator(self):
        b = bundle()
        f = b.J + 2.0
        identity = LambdaOperator(4, [(1, (((1, "id"),),))])
        out, info = identity.apply_at(b, f, Fraction(1, 3))
        assert np.array_equal(out, f)
        assert info["reduced"] == 0


class TestFieldPoly:
    @pytest.mark.parametrize("c", [3, -2, Fraction(1, 2)])
    def test_shift_matches_exact_shift(self, c):
        coeffs = [Fraction(5), Fraction(-3), Fraction(1, 4), Fraction(2)]
        shifted = FieldPoly([np.full(3, float(x)) for x in coeffs]).shift(c)
        want = LambdaPoly(coeffs).shift(c).coeffs
        assert [float(a[0]) for a in shifted.coeffs] == [float(x) for x in want]


class TestEvaluation:
    def test_order_two_matches_direct_formula(self):
        b = bundle(n=5)
        f = np.cos(b.chart.mesh()[0])
        lam = Fraction(1, 3)
        out, _ = build_T(5, 1).apply_at(b, f, lam)
        direct = (laplacian(b, f) - float(lam) * b.J * f) / (2 * (5 - 2) - 4 * float(lam))
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_normalized_order_two_is_shifted_laplacian(self):
        b = bundle(n=4)
        f = np.sin(b.chart.mesh()[1])
        lam = Fraction(3)
        out, _ = build_P(4, 1).apply_at(b, f, lam)
        assert np.max(np.abs(out - (laplacian(b, f) - 3.0 * b.J * f))) < 1e-12

    def test_order_four_adjoint_on_one_closed_form(self):
        # At n=4 the adjoint family on the constant reduces to
        # -[(lam+2)J^2 + 2(lam-1)|P|^2 - 3 lap J] / (32 (1 - lam)).
        b = bundle(n=4)
        lam = Fraction(5)
        out, _ = build_T(4, 2).adjoint().apply_at(b, ones(b), lam)
        r = (5 + 2) * b.J**2 + 2 * (5 - 1) * b.Psq - 3 * b.lapJ
        assert np.max(np.abs(out + r / (32 * (1 - 5)))) < 1e-12

    def test_normalized_order_four_on_one(self):
        # P4(lam)(1) = lam [(lam+2)J^2 + 2(lam-1)|P|^2 - lap J] at n=4.
        b = bundle(n=4)
        out, _ = build_P(4, 2).apply_at(b, ones(b), Fraction(2))
        rt = (2 + 2) * b.J**2 + 2 * (2 - 1) * b.Psq - b.lapJ
        assert np.max(np.abs(out - 2 * rt)) < 1e-12


class TestRemovableSingularities:
    def test_adjoint_on_one_at_zero(self):
        b = bundle(n=4)
        out, info = build_T(4, 2).adjoint().apply_at(b, ones(b), Fraction(0))
        assert info["reduced"] >= 1
        assert info["residue_norm"] == 0.0
        r0 = 2 * b.J**2 - 2 * b.Psq - 3 * b.lapJ
        assert np.max(np.abs(out + r0 / 32)) < 1e-12

    def test_derivative_at_zero(self):
        b = bundle(n=4)
        out, _ = build_T(4, 2).adjoint().derivative_at(b, ones(b), Fraction(0))
        assert np.max(np.abs(out + 3 * (b.J**2 - b.lapJ) / 32)) < 1e-10

    def test_genuine_pole_raises(self):
        b = bundle(n=4)
        f = np.cos(b.chart.mesh()[0])
        with pytest.raises(PoleError):
            build_T(4, 1).apply_at(b, f, Fraction(1))


class TestAdjoints:
    @pytest.mark.parametrize("N", [1, 2])
    def test_adjoint_is_weighted_transpose(self, N):
        b = bundle(n=6, preset="trig2")
        rng = np.random.default_rng(21)
        f = rng.standard_normal(b.chart.shape)
        g = rng.standard_normal(b.chart.shape)
        op = build_T(6, N)
        lam = Fraction(7, 2)
        lhs = inner(b, op.apply_at(b, f, lam)[0], g)
        rhs = inner(b, f, op.adjoint().apply_at(b, g, lam)[0])
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_double_adjoint_round_trips(self):
        b = bundle(n=4)
        f = np.sin(b.chart.mesh()[0] + b.chart.mesh()[1])
        lam = Fraction(-2)
        once, _ = build_T(4, 2).apply_at(b, f, lam)
        twice, _ = build_T(4, 2).adjoint().adjoint().apply_at(b, f, lam)
        assert np.max(np.abs(once - twice)) < 1e-12


class TestGJMS:
    """P_2N at lambda = n/2 - N, the conformally covariant GJMS operator."""

    def test_order_two_yamabe_point(self):
        b = bundle(n=4)
        f = np.cos(b.chart.mesh()[0])
        out, _ = build_P(4, 1).apply_at(b, f, Fraction(4, 2) - 1)
        direct = laplacian(b, f) - 1.0 * b.J * f
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_order_four_kills_constants_critical(self):
        b = bundle(n=4)
        out, _ = build_P(4, 2).apply_at(b, ones(b), Fraction(4, 2) - 2)
        assert np.max(np.abs(out)) < 1e-12

    def test_order_four_on_constants_subcritical(self):
        # At n=6 the critical normalization no longer applies and the
        # constant picks up the zeroth-order curvature term.
        b = bundle(n=6)
        out, _ = build_P(6, 2).apply_at(b, ones(b), Fraction(6, 2) - 2)
        assert np.max(np.abs(out)) > 1e-3
