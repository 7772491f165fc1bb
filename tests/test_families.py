"""Operator-family construction, evaluation, adjoints, and pole handling."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from holoq.conformal import (
    apply_primitive,
    curvature,
    divergence_form,
    holo_coeffs,
    laplacian,
    schouten_flux,
)
from holoq.families import (
    FieldPoly,
    LambdaOperator,
    PoleError,
    _lcm,
    build_P,
    build_T,
    pair_value,
    recursion_coefficients,
    values_on_one,
)
from holoq.grid import TorusChart
from holoq.lambda_algebra import LAMBDA, LambdaPoly, LambdaRat
from holoq.presets import preset_phi
from holoq.sphere import SphereContext, sphere_T_on_one, sphere_v
from holoq import families
from helpers import inner, mesh


def bundle(n=4, size=32, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


def ones(b):
    return np.ones(b.chart.shape)


# The families as first written out by hand, kept as references: T_2 and
# T_4 as field polynomials over their denominators, with the stages
# (lap - mu J) and the Schouten divergence and (dJ, d.) pairing terms.

def reference_T2(b, f):
    """T_2(lam) f = (lap f - lam J f) / (2(n - 2) - 4 lam)."""
    return FieldPoly([laplacian(b, f), -b.J * f]), LambdaPoly((2 * (b.n - 2), -4))


def _t4_den(n):
    """8 (n - 2 - 2 lam)(n - 4 - 2 lam)."""
    return LambdaPoly((n - 2, -2)) * LambdaPoly((n - 4, -2)) * 8


def reference_T4(b, f):
    """T_4(lam) f = [(lap - (lam+2) J)(lap - lam J) f + lam c |P|^2 f
    + 2c delta(P df) + c (dJ, df)] / den, c = 2 lam + 2 - n, with the
    pairing (dJ, df) = (lap(J f) - J lap f - f lap J) / 2."""
    n, J = b.n, b.J
    pdiv = divergence_form(b, schouten_flux, f)
    lap_f = laplacian(b, f)
    gj = 0.5 * (laplacian(b, J * f) - J * lap_f - f * b.lapJ)
    return FieldPoly([
        laplacian(b, lap_f) - 2 * J * lap_f + 2 * (2 - n) * pdiv + (2 - n) * gj,
        -laplacian(b, J * f) - J * lap_f + 2 * J**2 * f + (2 - n) * b.Psq * f + 4 * pdiv + 2 * gj,
        J**2 * f + 2 * b.Psq * f,
    ]), _t4_den(n)


def reference_T4_star_on_one(b):
    """The adjoint of reference_T4 on the constant 1, with (dJ, d.)* =
    -(dJ, d.) - lap J."""
    n, J, lapJ = b.n, b.J, b.lapJ
    return FieldPoly([(n - 4) * lapJ, 2 * J**2 + (2 - n) * b.Psq - 3 * lapJ,
                      J**2 + 2 * b.Psq]), _t4_den(n)


def pair_gap(got, want):
    """Coefficientwise max of got_num want_den - want_num got_den, and the
    size of its terms."""
    (gn, gd), (wn, wd) = got, want
    a, b = gn.mul_poly(wd), wn.mul_poly(gd)
    scale = max(a.max_norm(), b.max_norm())
    a += b.mul_poly(LambdaPoly((-1,)))
    return a.max_norm(), scale


class TestConstruction:
    def test_order_six_normalizes_to_polynomial(self):
        # the generated T_6: (-4)^3 3! (lam - n/2 + 1)_3 clears its denominators
        for n in (6, 7, 8):
            assert all(rat.is_polynomial() for rat in build_P(n, 3).terms.values()), n

    @pytest.mark.parametrize("n,N", [(4, 1), (4, 2), (5, 1), (6, 2), (9, 4)])
    def test_normalized_family_is_polynomial(self, n, N):
        assert all(rat.is_polynomial() for rat in build_P(n, N).terms.values())

    def test_identity_operator(self):
        b = bundle()
        f = b.J + 2.0
        identity = LambdaOperator({(): LambdaRat.const(1)})
        out, info = identity.apply_at(b, f, Fraction(1, 3))
        assert np.array_equal(out, f)
        assert info["reduced"] == 0

    def test_words_are_primitives(self):
        # T_{2N} is a sum of words of v_{2k} and D_{k-1}, k <= N, whose
        # orders (2k for either) add up to 2N
        for N in (1, 2, 3):
            for word in build_T(7, N).terms:
                assert sum(int(p[1:]) if p[0] == "v" else 2 * int(p[1:]) + 2
                           for p in word) == 2 * N, word

    def test_second_order_coefficients(self):
        indicial, cs = recursion_coefficients(6, 1)
        assert indicial == 2 * (2 * LAMBDA - 4) and cs == [2 * LAMBDA]

    def test_adjoint_reverses_words(self):
        op = build_T(6, 3)
        adj = op.adjoint()
        assert {w[::-1]: r for w, r in adj.terms.items()} == op.terms
        assert adj.adjoint().terms == op.terms


class TestReferences:
    """The generated families against the hand-written T_2 and T_4."""

    @pytest.mark.parametrize("preset", ["flat", "trig1", "trig2", "trig3"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_rounding_level_agreement(self, n, preset):
        b = bundle(n=n, size=64, preset=preset)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(b.chart.shape)
        v2 = -b.J / 2
        t2, t4 = build_T(n, 1), build_T(n, 2)
        cases = [(t2.field_poly(b, f), reference_T2(b, f)),
                 (t2.adjoint().field_poly(b, v2), reference_T2(b, v2)),
                 (t4.field_poly(b, ones(b)), reference_T4(b, ones(b))),
                 (t4.adjoint().field_poly(b, ones(b)), reference_T4_star_on_one(b))]
        for i, (got, want) in enumerate(cases):
            gap, scale = pair_gap(got, want)
            assert gap <= 1e-13 * max(scale, 1.0), (i, gap, scale)

    def test_fourth_order_converges_on_generic_fields(self):
        # The recursion's D_1 is the divergence form of B_1, which the
        # stencils discretize differently from J lap + (dJ, d.): the two
        # fourth-order families agree at O(h^4) on a generic field.
        gaps = []
        for size in (32, 64):
            b = bundle(n=5, size=size)
            f = preset_phi(b.chart, "trig3", seed=12)
            gap, _ = pair_gap(build_T(5, 2).field_poly(b, f), reference_T4(b, f))
            gaps.append(gap)
        assert gaps[0] / gaps[1] > 8.0


class TestValuesOnOne:
    def test_sphere_closed_form(self):
        for n in range(3, 17):
            ctx = SphereContext(n)
            values = values_on_one(n, [sphere_v(ctx, k) for k in range(9)])
            for N, value in enumerate(values):
                assert value == sphere_T_on_one(ctx, N), (n, N)

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_torus_family_on_flat_constants(self, n):
        # On a flat torus v_{2k} = 0 and T_{2N}(1) = 0 for N >= 1
        ch = TorusChart(n, (16, 16))
        b = curvature(ch, np.zeros(ch.shape))
        assert values_on_one(n, [Fraction(1)] + [Fraction(0)] * 3)[1:] == [0, 0, 0]
        for N in (1, 2, 3):
            num, _ = build_T(n, N).adjoint().field_poly(b, ones(b))
            assert num.max_norm() == 0.0


class TestFieldPoly:
    @pytest.mark.parametrize("c", [3, -2, Fraction(1, 2)])
    def test_shift_matches_exact_shift(self, c):
        coeffs = [Fraction(5), Fraction(-3), Fraction(1, 4), Fraction(2)]
        shifted = FieldPoly([np.full(3, float(x)) for x in coeffs]).shift(c)
        want = LambdaPoly(coeffs).shift(c).coeffs
        assert [float(a[0]) for a in shifted.coeffs] == [float(x) for x in want]


def reference_field_poly(op, b, f):
    """LambdaOperator.field_poly as first written: every word applied
    before any term is summed, every applied field held to the end, and
    each term's product built whole by mul_poly before it is added."""
    applied = {(): np.asarray(f, dtype=float)}
    terms = op.terms
    if np.all(applied[()] == 1.0):
        terms = {word: rat for word, rat in terms.items() if not word or word[-1][0] != "D"}
    for word in terms:
        for i in range(len(word) - 1, -1, -1):
            if word[i:] not in applied:
                applied[word[i:]] = apply_primitive(b, word[i], applied[word[i + 1:]])
    den = _lcm(rat.den for rat in op.terms.values())
    num = FieldPoly()
    for word, rat in terms.items():
        num += FieldPoly([applied[word]]).mul_poly(rat.num * den.divmod(rat.den)[0])
    return num, den, len(applied) - 1


class TestFieldPolyAgainstReference:
    """field_poly drops each applied field after the last term that reads
    it and adds each term into the numerator through one scratch buffer;
    the bits are those of reference_field_poly, at 192^2 (numpy elides
    temporaries of 256 KiB and more) on trig3, seed 11."""

    SIZE = 192

    @pytest.fixture(scope="class")
    def b(self):
        return bundle(n=6, size=self.SIZE, preset="trig3", seed=11)

    @pytest.fixture(scope="class")
    def field(self, b):
        # a NaN in one cell, and signed zeros that a zero term turns to +0.0
        f = np.random.default_rng(11).standard_normal(b.chart.shape)
        f[37, 101] = np.nan
        f[5, :4] = (0.0, -0.0, 0.0, -0.0)
        return f

    @staticmethod
    def zero_coefficient_operator():
        # cleared over the lcm (lam + 3): v2 [-3, -1], D0 [0, 3, 1],
        # v4 D0 [0, 3, 1, 3, 1], v2 v2 [-2, 0, 1], so a zero coefficient
        # lands both inside the numerator built so far and past its end
        return LambdaOperator({
            ("v2",): LambdaRat.const(-1),
            ("D0",): LambdaRat(LAMBDA),
            ("v4", "D0"): LambdaRat(LAMBDA**3 + LAMBDA),
            ("v2", "v2"): LambdaRat(LAMBDA**2 - 2, LAMBDA + 3),
        })

    def check(self, op, b, f, monkeypatch):
        calls = []
        original = families.apply_primitive

        def spy(bundle, name, g):
            calls.append(name)
            return original(bundle, name, g)

        monkeypatch.setattr(families, "apply_primitive", spy)
        num, den = op.field_poly(b, f)
        want, want_den, applied = reference_field_poly(op, b, f)
        assert den == want_den
        assert len(num.coeffs) == len(want.coeffs)
        for got, ref in zip(num.coeffs, want.coeffs):
            assert got.tobytes() == ref.tobytes()
        # each suffix is applied once, as in the reference
        assert len(calls) == applied

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_adjoint_families_on_coefficients(self, b, k, monkeypatch):
        op = build_T(6, 2).adjoint()
        self.check(op, b, holo_coeffs(b, k) if k else ones(b), monkeypatch)

    def test_family_on_field_with_nan(self, b, field, monkeypatch):
        self.check(build_T(6, 3), b, field, monkeypatch)

    def test_zero_coefficients(self, b, field, monkeypatch):
        op = self.zero_coefficient_operator()
        cleared = [rat.num * (LAMBDA + 3).divmod(rat.den)[0] for rat in op.terms.values()]
        assert [0 in p.coeffs for p in cleared] == [False, True, True, True]
        self.check(op, b, field, monkeypatch)


class TestEvaluation:
    def test_order_two_matches_direct_formula(self):
        b = bundle(n=5)
        f = np.cos(mesh(b.chart)[0])
        lam = Fraction(1, 3)
        out, _ = build_T(5, 1).apply_at(b, f, lam)
        direct = (laplacian(b, f) - float(lam) * b.J * f) / (2 * (5 - 2) - 4 * float(lam))
        assert np.max(np.abs(out - direct)) < 1e-12

    def test_normalized_order_two_is_shifted_laplacian(self):
        b = bundle(n=4)
        f = np.sin(mesh(b.chart)[1])
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
        f = np.cos(mesh(b.chart)[0])
        with pytest.raises(PoleError):
            build_T(4, 1).apply_at(b, f, Fraction(1))

    def test_pole_error_pickles(self):
        # a pole raised in a worker process reaches the caller through pickle
        err = pickle.loads(pickle.dumps(PoleError(Fraction(1, 3), 2.5e-3)))
        assert type(err) is PoleError
        assert (err.lam, err.residue_norm) == (Fraction(1, 3), 2.5e-3)
        assert str(err) == str(PoleError(Fraction(1, 3), 2.5e-3))

    def test_nan_residue_reaches_the_value(self):
        # (nan + lam) / lam at 0: the NaN residue must not vanish with the pole
        num = FieldPoly([np.full(3, np.nan), np.ones(3)])
        value, info = pair_value((num, LambdaPoly((0, 1))), 0)
        assert np.isnan(value).all()
        assert np.isnan(info["residue_norm"])
        assert np.array_equal(num.coeffs[1], np.ones(3))


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
        f = np.sin(mesh(b.chart)[0] + mesh(b.chart)[1])
        lam = Fraction(-2)
        once, _ = build_T(4, 2).apply_at(b, f, lam)
        twice, _ = build_T(4, 2).adjoint().adjoint().apply_at(b, f, lam)
        assert np.max(np.abs(once - twice)) < 1e-12


class TestGJMS:
    """P_2N at lambda = n/2 - N, the conformally covariant GJMS operator."""

    def test_order_two_yamabe_point(self):
        b = bundle(n=4)
        f = np.cos(mesh(b.chart)[0])
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
