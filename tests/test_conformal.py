"""Curvature formulas against the Christoffel oracle, plus adjoint exactness."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from holoq import conformal
from holoq.conformal import (
    CurvatureBundle,
    _flux,
    apply_primitive,
    curvature,
    divergence_form,
    grad_pair_J,
    gradient,
    holo_coeffs,
    inner,
    laplacian,
    oracle_curvature,
)
from holoq.grid import TorusChart, d1
from holoq.presets import preset_phi


def bundle(n=4, size=64, preset="trig1", seed=7):
    ch = TorusChart(n, (size, size))
    return curvature(ch, preset_phi(ch, preset, seed=seed))


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
        x1, _ = ch.mesh()
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

    @pytest.mark.parametrize("n", [4, 6])
    def test_against_metric_route_oracle(self, n):
        b = bundle(n=n, preset="trig1")
        oracle = oracle_curvature(b.chart, b.phi, route="metric")
        assert rel(b.J, oracle["J"]) < 1e-4
        assert rel(b.Psq, oracle["Psq"]) < 1e-4

    def test_metric_route_gap_shrinks_with_resolution(self):
        gaps = []
        for size in (32, 64):
            b = bundle(n=4, size=size, preset="trig1")
            oracle = oracle_curvature(b.chart, b.phi, route="metric")
            gaps.append(np.max(np.abs(b.J - oracle["J"])))
        assert gaps[0] / max(gaps[1], 1e-30) > 8 or gaps[1] < 1e-11

    @pytest.mark.parametrize("n", [4, 7])
    def test_fields_match_two_pass_hessian(self, n):
        # The bundle hands its gradient to hessian; recomputing the gradient
        # inside the Hessian, as the two-pass composition did, gives the
        # same bits in every field.
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
        want = {"J": J, "P": P, "p_inactive": p_inactive, "Psq": Psq,
                "dJ": (d1(ch, J, 0), d1(ch, J, 1))}
        for name, value in want.items():
            assert np.array_equal(np.asarray(getattr(b, name)), np.asarray(value)), name
        # the bitwise-equal mixed entries of P are held as one array
        assert b.P[1][0] is b.P[0][1]
        rebuilt = CurvatureBundle(ch, phi)
        for name in ("em2", "en2", "en4w", "emn", "W", "lapJ"):
            assert np.array_equal(getattr(b, name), getattr(rebuilt, name)), name
        assert np.array_equal(b.W, np.exp(float(n) * phi) * ch.cell_volume())
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



def dense_oracle_curvature(chart, phi, route="chain"):
    """The oracle as first written: every Christoffel symbol and every product
    is an array, including the ones that are zero by structure."""
    phi = np.asarray(phi, dtype=float)
    n = chart.n
    E = np.exp(2.0 * phi)
    Einv = 1.0 / E
    zero = chart.zeros()
    if route == "chain":
        lam = [d1(chart, phi, 0), d1(chart, phi, 1)] + [zero] * (n - 2)
    else:
        lam = [0.5 * Einv * d1(chart, E, 0), 0.5 * Einv * d1(chart, E, 1)] + [zero] * (n - 2)

    def gamma(k, i, j):
        out = 0.0
        if k == j:
            out = out + lam[i]
        if k == i:
            out = out + lam[j]
        if i == j:
            out = out - lam[k]
        if isinstance(out, float):
            return zero
        return out

    G = [[[gamma(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)]
    trace = [sum(G[l][l][k] for l in range(n)) for k in range(n)]

    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            term = 0.0
            for l in range(2):
                term = term + d1(chart, G[l][j][k], l)
            if j < 2:
                term = term - d1(chart, trace[k], j)
            for m in range(n):
                term = term + trace[m] * G[m][j][k]
                for l in range(n):
                    term = term - G[l][j][m] * G[m][l][k]
            ric[j][k] = term if not isinstance(term, float) else zero
            ric[k][j] = ric[j][k]

    scal = Einv * sum(ric[j][j] for j in range(n))
    J = scal / (2.0 * (n - 1.0))
    P = [[(ric[j][k] - (J * E if j == k else 0.0)) / (n - 2.0) for k in range(n)]
         for j in range(n)]
    Psq = Einv ** 2 * sum(P[j][k] ** 2 for j in range(n) for k in range(n))
    return {
        "scal": scal,
        "J": J,
        "Psq": Psq,
        "P_active": [[P[i][k] for k in range(2)] for i in range(2)],
    }


class TestOracle:
    @pytest.mark.parametrize("route", ["chain", "metric"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_dense_reference_bitwise(self, n, route):
        # Skipping structural zeros keeps every surviving addition in order,
        # so only the sign of an exact zero may differ, which array_equal
        # ignores.
        ch = TorusChart(n, (32, 32))
        phi = preset_phi(ch, "trig2", seed=7)
        got = oracle_curvature(ch, phi, route=route)
        ref = dense_oracle_curvature(ch, phi, route=route)
        for key in ("scal", "J", "Psq"):
            assert np.array_equal(got[key], ref[key]), key
        for i in range(2):
            for k in range(2):
                assert np.array_equal(got["P_active"][i][k], ref["P_active"][i][k]), (i, k)

    # Before the oracle built one array per index class, its tracemalloc peak
    # at n = 6 on 128^2 was 39.1 grid arrays on either route (held Christoffel
    # lists, n - 2 copies of each inactive-axis entry, a fresh array per
    # accumulation step); it is 19.2 now. The bound keeps a margin of 15.
    @pytest.mark.parametrize("route", ["chain", "metric"])
    def test_peak_memory_in_grid_arrays(self, route):
        ch = TorusChart(6, (128, 128))
        phi = preset_phi(ch, "trig1", seed=7)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            oracle_curvature(ch, phi, route=route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / phi.nbytes < 39 - 15


class TestDerivativeReuse:
    @pytest.mark.parametrize("route", ["chain", "metric"])
    def test_oracle_differentiates_each_array_once(self, route, monkeypatch):
        # Distinct in content, not only in identity: a fresh array with the
        # bits of one already differentiated along that axis is a repeat
        # (two such repeats, 13 calls, before the pure negations were shared).
        for n in (4, 6):
            seen, contents = [], set()

            def spy(chart, f, axis):
                assert not any(g is f and a == axis for g, a in seen)
                seen.append((f, axis))  # holding f keeps its identity unique
                contents.add((hashlib.sha256(f.tobytes()).hexdigest(), axis))
                return d1(chart, f, axis)

            monkeypatch.setattr(conformal, "d1", spy)
            ch = TorusChart(n, (32, 32))
            oracle_curvature(ch, preset_phi(ch, "trig1", seed=7), route)
            assert len(seen) == len(contents) == 11

    def test_given_derivatives_are_the_ones_rebuilt(self):
        b = bundle(n=6, size=32)
        f = np.random.default_rng(12).standard_normal(b.chart.shape)
        grad = gradient(b.chart, f)
        lap = laplacian(b, f, grad)
        B = _flux(b, 1)
        assert lap.tobytes() == laplacian(b, f).tobytes()
        assert divergence_form(b, B, f, grad).tobytes() == divergence_form(b, B, f).tobytes()
        for form, given in (("commutator", {"lap": lap}), ("direct", {"grad": grad})):
            assert grad_pair_J(b, f, form, **given).tobytes() == grad_pair_J(b, f, form).tobytes()
        assert b.lapJ.tobytes() == laplacian(b, b.J).tobytes()


class TestOperators:
    def test_flat_laplacian_eigenfunction(self):
        ch = TorusChart(4, (64, 64))
        b = curvature(ch, np.zeros(ch.shape))
        x1, x2 = ch.mesh()
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
        B = tuple(-b.en4w * p for p in (b.P[0][0], b.P[0][1], b.P[1][1]))
        lhs = inner(b, divergence_form(b, B, f), g)
        rhs = inner(b, f, divergence_form(b, B, g))
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
            x1, x2 = b.chart.mesh()
            f = np.cos(x1) * np.sin(2 * x2)
            B = tuple(-b.en4w * p for p in (b.P[0][0], b.P[0][1], b.P[1][1]))
            closed = (-0.5 * (b.J * laplacian(b, f) + grad_pair_J(b, f, "direct"))
                      - divergence_form(b, B, f))
            gaps.append(rel(divergence_form(b, _flux(b, 1), f), closed))
        assert gaps[1] < 1e-3 and gaps[0] / gaps[1] > 8

    def test_unknown_primitive(self):
        with pytest.raises(ValueError):
            apply_primitive(bundle(size=16), "x1", np.ones((16, 16)))

    def test_grad_pair_adjoint_rule_exact(self):
        # The commutator form satisfies G* = -G - (lap J) exactly on the grid.
        b = bundle(n=4, preset="trig2")
        rng = np.random.default_rng(11)
        f = rng.standard_normal(b.chart.shape)
        g = rng.standard_normal(b.chart.shape)
        res = (inner(b, grad_pair_J(b, f), g) + inner(b, f, grad_pair_J(b, g))
               + inner(b, f, b.lapJ * g))
        assert abs(res) < 1e-10

    def test_grad_pair_forms_agree(self):
        b = bundle(n=4, preset="trig1")
        x1, x2 = b.chart.mesh()
        f = np.cos(x1) * np.sin(x2)
        diff = grad_pair_J(b, f, "commutator") - grad_pair_J(b, f, "direct")
        assert np.max(np.abs(diff)) < 1e-4


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
        x1, _ = ch.mesh()
        b = curvature(ch, a * np.cos(x1))
        vol = inner(b, 1, 1)
        assert vol == pytest.approx(4 * np.pi**2 * np.i0(n * a), rel=1e-10)
