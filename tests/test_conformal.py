"""Curvature formulas against the dense Christoffel oracle, plus adjoint exactness."""

import numpy as np
import pytest

from holoq import conformal, holographic
from holoq.conformal import (
    CurvatureBundle,
    _flux,
    apply_primitive,
    curvature,
    divergence_form,
    holo_coeffs,
    laplacian,
    oracle_curvature,
    schouten_weight,
    volume_weight,
)
from holoq.grid import TorusChart, d1
from holoq.presets import preset_phi
from helpers import inner, mesh


def gradient(chart, f):
    return d1(chart, f, 0), d1(chart, f, 1)


def entries(B):
    """Three whole fields B as divergence_form takes them: a function of a
    bundle or a block of its cells giving the list of the entries there."""
    return lambda c: [c.view(x) for x in B]


def by_cells(f):
    """f as a function of a flat range of cells, as the adjoint pairings
    give their probes: a fresh array each call."""
    flat = np.ascontiguousarray(f).reshape(-1)
    return lambda cells: flat[cells].copy()


def bundle(n=4, size=64, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


def schouten_P(b):
    return b.P[0][0], b.P[0][1], b.P[1][1]


def schouten_flux(b):
    """The divergence form's Schouten case B = -e^{(n-4) phi} P as three
    whole fields: the reference for divergence_form's weight."""
    w = schouten_weight(b)
    return tuple(w * p for p in schouten_P(b))


def rel(a, b):
    scale = max(np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


class TestCurvature:
    def test_flat_metric_is_flat(self):
        b = bundle(preset="flat")
        assert np.all(b.J == 0.0)
        assert np.all(b.Psq == 0.0)

    def test_single_mode_matches_analytic(self):
        n, a = 5, 0.1
        ch = TorusChart(n, (64, 64))
        x1, _ = mesh(ch)
        phi = a * np.cos(x1)
        b = curvature(ch, phi)
        grad2 = (a * np.sin(x1)) ** 2
        expected = -np.exp(-2 * phi) * (-a * np.cos(x1) + 0.5 * (n - 2) * grad2)
        assert rel(b.J, expected) < 1e-5

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("preset", ["trig1", "trig2"])
    def test_against_christoffel_oracle(self, n, preset):
        b = bundle(n=n, preset=preset)
        oracle = oracle_curvature(b.chart, b.phi)
        assert rel(b.J, oracle["J"]) < 1e-6
        assert rel(b.Psq, oracle["Psq"]) < 1e-6
        for i in range(2):
            for k in range(2):
                assert np.max(np.abs(b.P[i][k] - oracle["P_active"][i][k])) < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_against_christoffel_oracle_on_spectral_chart(self, n):
        # the Fourier d1 resolves the preset, so the two agree to rounding
        ch = TorusChart(n, (24, 24), "spectral")
        b = curvature(ch, preset_phi(ch, "trig2", seed=7))
        oracle = oracle_curvature(ch, b.phi)
        assert rel(b.J, oracle["J"]) < 1e-13
        assert rel(b.Psq, oracle["Psq"]) < 1e-13

    @pytest.mark.parametrize("n", [4, 7])
    def test_fields_match_two_pass_hessian(self, n):
        # The bundle forms its Hessian a block of rows at a time from phi's
        # partials there; the two-pass composition of whole d1 calls gives
        # the same bits in every field.
        b = bundle(n=n, preset="trig2")
        ch, phi = b.chart, b.phi
        g0, g1 = d1(ch, phi, 0), d1(ch, phi, 1)
        hess = [[d1(ch, d1(ch, phi, 0), 0), d1(ch, d1(ch, phi, 1), 0)],
                [d1(ch, d1(ch, phi, 1), 0), d1(ch, d1(ch, phi, 1), 1)]]
        gradsq = g0 * g0 + g1 * g1
        em2 = np.exp(-2.0 * phi)
        J = -em2 * (hess[0][0] + hess[1][1] + 0.5 * (n - 2.0) * gradsq)
        dp = [g0, g1]
        P = [[-hess[i][k] + dp[i] * dp[k] - (0.5 * gradsq if i == k else 0.0)
              for k in range(2)] for i in range(2)]
        p_inactive = -0.5 * gradsq
        frob = sum(P[i][k] ** 2 for i in range(2) for k in range(2))
        Psq = em2 ** 2 * (frob + (n - 2.0) * p_inactive ** 2)
        want = {"J": J, "P": P, "p_inactive": p_inactive, "Psq": Psq}
        for name, value in want.items():
            assert np.array_equal(np.asarray(getattr(b, name)), np.asarray(value)), name
        # the bitwise-equal mixed entries of P are held as one array
        assert b.P[1][0] is b.P[0][1]
        rebuilt = CurvatureBundle(ch, phi)
        for name in ("em2", "en2", "emn", "lapJ"):
            assert np.array_equal(getattr(b, name), getattr(rebuilt, name)), name
        assert np.array_equal(volume_weight(b), np.exp(float(n) * phi) * ch.cell_volume())
        assert np.array_equal(b.lapJ, laplacian(b, J))


class TestHoloCoeffs:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_elementary_symmetric_functions(self, n):
        # v_{2k} = (-1/2)^k sigma_k(A), A = g^{-1} P, against the
        # characteristic polynomial of the full n x n endomorphism per point.
        b = bundle(n=n, size=16, preset="trig2")
        A = np.zeros(b.chart.shape + (n, n))
        for i in range(2):
            for k in range(2):
                A[..., i, k] = b.em2 * b.P[i][k]
        for i in range(2, n):
            A[..., i, i] = b.em2 * b.p_inactive
        sigma = np.array([np.poly(a) for a in A.reshape(-1, n, n)])  # (-1)^k sigma_k
        scale = max(np.max(np.abs(b.J)), 1.0) ** n
        for k in range(n + 2):
            want = (0.5 ** k * sigma[:, k] if k <= n else 0.0 * sigma[:, 0]).reshape(b.chart.shape)
            assert np.max(np.abs(holo_coeffs(b, k) - want)) < 1e-12 * scale, k


class TestBlockOperands:
    @pytest.mark.parametrize("size", [32, 192])
    def test_operands_given_by_blocks_are_the_whole_ones(self, size):
        # f as a function of a flat range of cells, and B_1 as a function
        # of a block (how D_1 gives it) or as three whole fields
        b = bundle(n=6, size=size)
        f = np.random.default_rng(12).standard_normal(b.chart.shape)
        B = _flux(b, 1)
        lap = laplacian(b, f)
        assert laplacian(b, by_cells(f)).tobytes() == lap.tobytes()
        want = divergence_form(b, entries(B), f).tobytes()
        for operand in (f, by_cells(f)):
            assert divergence_form(b, entries(B), operand).tobytes() == want
            assert divergence_form(b, lambda c: _flux(c, 1), operand).tobytes() == want
        assert apply_primitive(b, "D1", f).tobytes() == want
        assert b.lapJ.tobytes() == laplacian(b, b.J).tobytes()


class TestSharedField:
    """The bundle keeps one field for lap J and D0(v2): laplacian(b, v2 * 1),
    the word ("D0", "v2") of the families on the ones field, is -lap J / 2
    bit for bit, since scaling an operand by -1/2 scales every operation of
    the Laplacian exactly. A change to the Laplacian or to v2 that breaks
    this fails here first."""

    @pytest.mark.parametrize("size,derivative", [(16, "stencil"), (30, "stencil"),
                                                 (64, "stencil"), (136, "stencil"),
                                                 (32, "spectral")])
    def test_d0_v2_is_minus_half_lap_j(self, size, derivative):
        for n in range(4, 9):
            ch = TorusChart(n, (size, size), derivative)
            for preset in ("trig1", "trig2", "trig3"):
                b = curvature(ch, preset_phi(ch, preset, seed=7))
                lap_j = laplacian(b, b.J)
                half = (-0.5 * lap_j).tobytes()
                assert laplacian(b, holo_coeffs(b, 1) * holo_coeffs(b, 0)).tobytes() == half
                assert b.lap_v2.tobytes() == half and b.lapJ.tobytes() == lap_j.tobytes()


class TestOperators:
    def test_flat_laplacian_eigenfunction(self):
        ch = TorusChart(4, (64, 64))
        b = curvature(ch, np.zeros(ch.shape))
        x1, x2 = mesh(ch)
        f = np.sin(x1) + np.cos(x2)
        assert np.max(np.abs(laplacian(b, f) + f)) < 1e-4

    def test_laplacian_self_adjoint_exactly(self):
        b = bundle(n=6, preset="trig2")
        rng = np.random.default_rng(9)
        f = rng.standard_normal(b.chart.shape)
        g = rng.standard_normal(b.chart.shape)
        lhs = inner(b, laplacian(b, f), g)
        rhs = inner(b, f, laplacian(b, g))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_schouten_div_grad_self_adjoint_exactly(self):
        # the divergence form's Schouten case, B = -e^{(n-4) phi} P
        b = bundle(n=4, preset="trig1")
        rng = np.random.default_rng(10)
        f = rng.standard_normal(b.chart.shape)
        g = rng.standard_normal(b.chart.shape)
        B = schouten_flux(b)
        lhs = inner(b, divergence_form(b, entries(B), f), g)
        rhs = inner(b, f, divergence_form(b, entries(B), g))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("name", ["v2", "v4", "v6", "D0", "D1", "D2", "D3"])
    def test_primitives_self_adjoint_exactly(self, name):
        b = bundle(n=7, preset="trig2")
        rng = np.random.default_rng(12)
        f = rng.standard_normal(b.chart.shape)
        g = rng.standard_normal(b.chart.shape)
        lhs = inner(b, apply_primitive(b, name, f), g)
        rhs = inner(b, f, apply_primitive(b, name, g))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_first_flux_is_schouten_and_pairing(self):
        # D_1 f = -(1/2) div(J grad f) + div(e^{-2 phi} P grad f), which is
        # -(1/2)(J lap f + (dJ, df)) - delta(P df) up to the stencils' h^4
        gaps = []
        for size in (32, 64):
            b = bundle(n=5, preset="trig1", size=size)
            x1, x2 = mesh(b.chart)
            f = np.cos(x1) * np.sin(2 * x2)
            B = schouten_flux(b)
            g0, g1 = gradient(b.chart, f)
            dJ = gradient(b.chart, b.J)
            pairing = b.em2 * (dJ[0] * g0 + dJ[1] * g1)  # (dJ, df) in the metric
            closed = -0.5 * (b.J * laplacian(b, f) + pairing) - divergence_form(b, entries(B), f)
            gaps.append(rel(divergence_form(b, lambda c: _flux(c, 1), f), closed))
        assert gaps[1] < 1e-3 and gaps[0] / gaps[1] > 8

    def test_unknown_primitive(self):
        with pytest.raises(ValueError):
            apply_primitive(bundle(size=16), "x1", np.ones((16, 16)))


class TestIntegration:
    def test_flat_volume(self):
        ch = TorusChart(4, (32, 32))
        b = curvature(ch, np.zeros(ch.shape))
        assert inner(b, 1, 1) == pytest.approx(4 * np.pi**2)

    def test_conformal_volume_bessel(self):
        # For phi = a cos(x1) the volume is (2 pi)^2 I_0(n a), and the
        # periodic trapezoid rule is spectrally accurate on it.
        n, a = 6, 0.1
        ch = TorusChart(n, (64, 64))
        x1, _ = mesh(ch)
        b = curvature(ch, a * np.cos(x1))
        vol = inner(b, 1, 1)
        assert vol == pytest.approx(4 * np.pi**2 * np.i0(n * a), rel=1e-10)


# The operators as whole expressions, kept as references: every operator
# above accumulates into one owned output, with the operands of each IEEE
# operation in the same order, so it must give these bits exactly.

def reference_laplacian(b, f):
    ch = b.chart
    g0, g1 = gradient(ch, f)
    return b.emn * (d1(ch, b.en2 * g0, 0) + d1(ch, b.en2 * g1, 1))


def reference_divergence_form(b, B, f):
    ch = b.chart
    g0, g1 = gradient(ch, f)
    B00, B01, B11 = B
    return b.emn * (d1(ch, B00 * g0 + B01 * g1, 0) + d1(ch, B01 * g0 + B11 * g1, 1))


def reference_inner(b, f, g):
    return float(np.sum(f * g * (np.exp(float(b.n) * b.phi) * b.chart.cell_volume())))


def nan_cell(a, cell=(37, 101)):
    a = np.array(a, dtype=float)
    a[cell] = np.nan
    return a


def read_only(b):
    """b with every array it holds made read-only: an operator that wrote
    into one would raise."""
    for value in vars(b).values():
        for arr in value if isinstance(value, list) else [value]:
            for a in arr if isinstance(arr, list) else [arr]:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
    return b


class TestWholeExpressionReferences:
    SIZE = 192

    @pytest.fixture(params=["field", "metric"])
    def case(self, request):
        # a NaN in one cell of the input field, or of the conformal factor
        ch = TorusChart(6, (self.SIZE, self.SIZE))
        phi = preset_phi(ch, "trig3", seed=11)
        f = np.random.default_rng(11).standard_normal(ch.shape)
        f[5, :3] = (0.0, -0.0, 0.0)
        if request.param == "field":
            f = nan_cell(f)
        else:
            phi = nan_cell(phi)
        return read_only(curvature(ch, phi)), f

    # the operand f as a whole field ("built"), or given as a function of a
    # flat range of cells ("given"), as the adjoint pairings give theirs
    @pytest.mark.parametrize("given", [False, True], ids=["built", "given"])
    def test_operators(self, case, given):
        b, f = case
        operand = by_cells(f) if given else f
        B = schouten_flux(b)
        assert (laplacian(b, operand).tobytes()
                == reference_laplacian(b, f).tobytes())
        assert (divergence_form(b, entries(B), operand).tobytes()
                == reference_divergence_form(b, B, f).tobytes())
        B1 = _flux(b, 1)
        assert (divergence_form(b, lambda c: _flux(c, 1), operand).tobytes()
                == reference_divergence_form(b, B1, f).tobytes())

    @pytest.mark.parametrize("given", [False, True], ids=["built", "given"])
    def test_weighted_schouten_contraction(self, case, given):
        # B = w P formed a block of cells at a time, against its three
        # whole fields
        b, f = case
        operand = by_cells(f) if given else f
        got = divergence_form(b, conformal.schouten_flux, operand)
        assert got.tobytes() == divergence_form(b, entries(schouten_flux(b)), f).tobytes()
        assert got.tobytes() == reference_divergence_form(b, schouten_flux(b), f).tobytes()

    def test_inner_and_weights(self, case):
        b, f = case
        g = np.random.default_rng(12).standard_normal(b.chart.shape)
        for x, y in ((f, g), (g, f), (g, g), (1, 1)):
            assert inner(b, x, y).hex() == reference_inner(b, x, y).hex()
        en4w = np.exp((b.n - 4.0) * b.phi)
        assert schouten_weight(b).tobytes() == (-en4w).tobytes()
        for got, p in zip(schouten_flux(b), schouten_P(b)):
            assert got.tobytes() == (-en4w * p).tobytes()

    def test_bundle(self, case):
        b, _ = case
        want, got = reference_bundle(b), bundle_fields(b)
        for name, value in want.items():
            assert got[name].tobytes() == value.tobytes(), name
        # the kept lap_v2 is D0(v2), v2 = -J/2, and lap J is read from it
        # as -2 lap_v2: the references' bits in every cell but a NaN's, whose
        # sign follows the operand order
        for lap, ref in ((b.lap_v2, reference_laplacian(b, -want["J"] / 2)),
                         (b.lapJ, reference_laplacian(b, want["J"]))):
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(lap), nan)
            assert lap[~nan].tobytes() == ref[~nan].tobytes()
        # the weights only the adjoint pairings read are not kept, nor are
        # the conformal weights and |P|^2, which the bundle's properties
        # rebuild per read
        assert not {"W", "en4w", "em2", "en2", "emn", "Psq"} & set(vars(b))


def reference_bundle(b):
    """The bundle's fields and per-read fields built as whole expressions,
    with every temporary held to the end; numpy may elide a temporary into
    an in-place operation, which can change the sign of a NaN, so lap0 is
    named as in the bundle."""
    ch, phi, n = b.chart, b.phi, b.n
    em2 = np.exp(-2.0 * phi)
    dp = gradient(ch, phi)
    gradsq = dp[0] * dp[0] + dp[1] * dp[1]
    mixed = d1(ch, dp[1], 0)
    hess = [[d1(ch, dp[0], 0), mixed], [mixed, d1(ch, dp[1], 1)]]
    lap0 = hess[0][0] + hess[1][1]
    J = -em2 * (lap0 + 0.5 * (n - 2.0) * gradsq)
    p01 = -hess[0][1] + dp[0] * dp[1]
    P = [[-hess[i][k] + dp[i] * dp[k] - 0.5 * gradsq if i == k else p01
          for k in range(2)] for i in range(2)]
    p_inactive = -0.5 * gradsq
    frob = sum(P[i][k] ** 2 for i in range(2) for k in range(2))
    return {"em2": em2, "en2": np.exp((n - 2.0) * phi), "emn": np.exp(-float(n) * phi),
            "J": J, "p_inactive": p_inactive,
            "Psq": em2 ** 2 * (frob + (n - 2.0) * p_inactive ** 2),
            "P00": P[0][0], "P01": P[0][1], "P11": P[1][1]}


def bundle_fields(b):
    """The fields reference_bundle names, as the bundle forms them whole."""
    return {"J": b.J, "p_inactive": b.p_inactive, "em2": b.em2, "en2": b.en2, "emn": b.emn,
            "Psq": b.Psq, "P00": b.P[0][0], "P01": b.P[0][1], "P11": b.P[1][1]}


def whole_fields(b):
    """The distinct arrays a bundle holds, its lists of them included."""
    arrays = {}
    for value in vars(b).values():
        for row in value if isinstance(value, list) else [value]:
            for a in row if isinstance(row, list) else [row]:
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a
    return list(arrays.values())


def test_run_grid_bundle_keeps_only_phi(monkeypatch):
    # a dimension's checks on the run's grid read J, P, p_inactive and
    # lap_v2 from each block's window (conformal.Window), so after them the
    # bundle holds phi alone and the families as operators. It kept 7 whole
    # fields: phi, J, P00, P01 (which is
    # P10), P11, p_inactive and lap_v2, which is D0(v2) and -lap J / 2
    bundles = []
    original = holographic._metric
    monkeypatch.setattr(holographic, "_metric",
                        lambda *args: bundles.append(original(*args)) or bundles[-1])
    assert all(r.passed for r in holographic._dimension_reports(6, 256, "trig1", 7, None))
    spectral, b = bundles
    assert b.chart.derivative == "stencil" and set(b.family_polys) == {(1, 0), (1, 1), (2, 0)}
    assert [id(a) for a in whole_fields(b)] == [id(b.phi)]
    assert set(vars(b)) == {"chart", "phi", "n", "family_polys"}
    # a whole read forms all of them whole, from the blocks, and keeps them
    b.lap_v2
    kept = [b.phi, b.J, b.P[0][0], b.P[0][1], b.P[1][1], b.p_inactive, b.lap_v2]
    assert sorted(map(id, whole_fields(b))) == sorted(map(id, kept))
    assert all(a.shape == b.chart.shape for a in kept)


class TestBlockWeights:
    """The weights e^{(n-2) phi}, e^{-n phi}, e^{n phi} vol and
    -e^{(n-4) phi} are formed a grid.BLOCK of cells at a time (one block at
    16^2, a full one and a ragged one at 192^2); the operators and inner
    have the bits of the same operations on whole weights, NaN cells
    included. On the spectral chart a NaN reaches every cell, with either
    sign, so there the operand order of each operation matters too."""

    @pytest.fixture(params=[(derivative, size, nan) for derivative in ("stencil", "spectral")
                            for size in (16, 192) for nan in ("field", "metric")],
                    ids=lambda p: "-".join(map(str, p)))
    def case(self, request):
        derivative, size, nan = request.param
        ch = TorusChart(6, (size, size), derivative)
        phi = preset_phi(ch, "trig3", seed=11)
        f = np.random.default_rng(11).standard_normal(ch.shape)
        cell = (5, 11) if size == 16 else (37, 101)
        if nan == "field":
            f = nan_cell(f, cell)
        else:
            phi = nan_cell(phi, cell)
        return read_only(curvature(ch, phi)), f

    @staticmethod
    def whole_weight_laplacian(b, f):
        ch = b.chart
        g0, g1 = gradient(ch, f)
        out = d1(ch, b.en2 * g0, 0)
        out += d1(ch, b.en2 * g1, 1)
        out *= b.emn
        return out

    @staticmethod
    def whole_weight_divergence_form(b, f):
        ch, (P00, P01, P11), w = b.chart, schouten_P(b), schouten_weight(b)
        g0, g1 = gradient(ch, f)
        out = d1(ch, (w * P00) * g0 + (w * P01) * g1, 0)
        out += d1(ch, (w * P01) * g0 + (w * P11) * g1, 1)
        out *= b.emn
        return out

    def test_operators(self, case):
        b, f = case
        for operand in (f, by_cells(f)):
            assert (laplacian(b, operand).tobytes()
                    == self.whole_weight_laplacian(b, f).tobytes())
            got = divergence_form(b, conformal.schouten_flux, operand)
            assert got.tobytes() == self.whole_weight_divergence_form(b, f).tobytes()

    def test_inner(self, case):
        b, f = case
        g = np.random.default_rng(12).standard_normal(b.chart.shape)
        for x, y in ((f, g), (g, f), (1, 1)):
            assert inner(b, x, y).hex() == reference_inner(b, x, y).hex()
        # a factor given a block of cells at a time, as the adjoint pairings
        # give their probes
        blocks = lambda cells: g.reshape(-1)[cells]  # noqa: E731
        assert inner(b, f, blocks).hex() == reference_inner(b, f, g).hex()
        assert inner(b, blocks, f).hex() == reference_inner(b, g, f).hex()
