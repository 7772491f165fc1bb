"""Holographic coefficients, Q-curvatures, and the numeric identity suites.

The verifier side of the package. One holographic formula, holographic_q,
gives every Q_{2N} from the values T*_{2j}(n/2 - N)(v_{2N-2j}), read off the
family polynomials on torus metrics (torus_q) and off the family values on
constants for the constant-curvature model. On a spectral chart the suites
check the GJMS operators and Q-curvatures against the flat base; on the
run's grid they check the master relations, the displayed identities and
the degree/vanishing statements as polynomial identities in the spectral
parameter, with field coefficients, each decided once, coefficientwise, for
every value of it; and they run the critical n = 4 suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import zip_longest
from fractions import Fraction
from math import factorial

import numpy as np

from .conformal import (
    CurvatureBundle,
    curvature,
    divergence_form,
    gradient,
    holo_coeffs,
    inner,
    laplacian,
    schouten_flux,
    volume_weight,
)
from .families import (
    FieldPoly,
    PoleError,
    build_P,
    build_T,
    constant_q,
    constant_terms,
    holographic_q,
    master3_weights,
    over_lcm,
    pair_derivative,
    pair_value,
    values_on_one,
)
from .grid import TorusChart, cell_blocks, cell_view, wavenumbers
from .lambda_algebra import LAMBDA, LambdaPoly, binomial, pochhammer
from .presets import preset_phi
from .reports import CheckReport, attempt, exact_report, max_abs, tolerance_report

# The numeric suite checks fourth-order families, which need n >= 4.
MIN_NUMERIC_N = 4
# The geometry checks (gjms-flat, q-flat, the generic-shift law) run on a
# spectral chart of this many points per axis, whatever the run's grid. Its
# Fourier d1 resolves the presets; the gaps left are rounding, amplified about
# s^{2N} by the N-th power of the Laplacian. Their bounds, per N and for the
# law, are about 100 times the largest gap relative to the reference over
# trig1-3, seeds 1, 7, 11, 23 and n = 4..9.
SPECTRAL_GRID = 32
FLAT_TOL = {1: 4e-11, 2: 8e-9, 3: 2e-6}
LAW_TOL = 5e-10
# The run grid's checks follow from the recursion for any fields, so rounding
# alone limits them. Over grids 16-1024, presets flat and trig1-3, seeds 1, 7,
# 11, 23 and n = 4..8, residual / max(1, scale) was at most 1.6e-14 for the
# identities, 4.8e-14 (size / 32)^(5/4) for the adjoints, whose grid sums
# grow their rounding with the grid (2.0e-14 at 16^2, 2.7e-12 at 1024^2; a
# least-squares fit gives the power 1.2), and 3.4e-13 (size / 32)^4 for the
# constant shift, whose four stencil derivatives amplify rounding about
# h^-4. The bounds are about 100 times their worst.
IDENTITY_TOL = 2e-12
ADJOINT_TOL = 5e-12  # times (size / SPECTRAL_GRID)^(5/4)
CONST_SHIFT_TOL = 4e-11  # times (size / SPECTRAL_GRID)^4


def family_poly(b: CurvatureBundle, j: int, k: int):
    """T*_{2j}(lam)(v_{2k}) as a field_poly (num, den) pair in lam.

    The pair does not depend on lam, so it is built once per bundle and
    kept there; evaluate it with pair_value or pair_derivative.
    """
    pair = b.family_polys.get((j, k))
    if pair is None:
        pair = build_T(b.n, j).adjoint().field_poly(b, holo_coeffs(b, k))
        b.family_polys[(j, k)] = pair
    return pair


def q4_direct(b: CurvatureBundle):
    return (b.n / 2) * b.J**2 - 2 * b.Psq - b.lapJ


def pole_guarded(evaluate):
    """(evaluate(), {}), or (NaN, {"pole": why}) where a wrong family leaves a
    genuine pole at the point evaluated: the NaN fails every check reading it."""
    try:
        return evaluate(), {}
    except PoleError as err:
        return np.nan, {"pole": str(err)}


def torus_q(b: CurvatureBundle, N: int):
    """Q_{2N} of a torus metric by holographic_q. Its point n/2 - N is never
    a pole: the denominators of T*_{2j} vanish only at n/2 - M, M <= j < N."""
    mu = Fraction(b.n, 2) - N
    return holographic_q(N, [holo_coeffs(b, N)] + [
        pair_value(family_poly(b, j, N - j), mu)[0] for j in range(1, N)])


@dataclass(frozen=True)
class EinsteinModel:
    """Constant-curvature model with every quantity a rational in J.

    Generalizes the round sphere (J = n/2): the Schouten tensor is J/n times
    the metric, so |P|^2 = J^2/n and all derivative terms vanish. The volume
    expansion is (1 - J r^2/(2n))^n. This mode extrapolates beyond the
    verified sphere family and is labeled as such in reports.
    """

    n: int
    J: Fraction

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        object.__setattr__(self, "J", Fraction(self.J))

    def v(self, k: int) -> Fraction:
        return binomial(self.n, k) * (-self.J / (2 * self.n)) ** k

    def schouten_norm_sq(self) -> Fraction:
        return self.J**2 / self.n

    def q4(self) -> Fraction:
        return self.J**2 * (self.n**2 - 4) / (2 * self.n)


class _Cells:
    """A bundle's fields and cached family polynomials on a flat range of
    cells, as read-only views that holo_coeffs and family_poly read as they
    read the bundle."""

    def __init__(self, b: CurvatureBundle, cells):
        self.n, self.cells = b.n, cells
        for name in ("J", "Psq", "lapJ", "em2", "p_inactive"):
            setattr(self, name, cell_view(getattr(b, name), cells))
        self.P = [[cell_view(p, cells) for p in row] for row in b.P]
        self.family_polys = {key: (num.cells(cells), den)
                             for key, (num, den) in b.family_polys.items()}


def _blocks(b: CurvatureBundle):
    """b on each flat block of grid.BLOCK cells, in order. The families its
    checks read must be cached on b first."""
    return (_Cells(b, cells) for cells in cell_blocks(b.J.size))


def _merged(readings):
    """Whole-grid norms from per-block readings alike in shape (floats, or
    lists and tuples of them): max_abs of each float over the blocks."""
    first = readings[0]
    if isinstance(first, float):
        return max_abs(readings)
    return type(first)(_merged(list(col)) for col in zip(*readings))


def _t_star_pairs(b, N: int):
    """[T*_{2j}(lam)(v_{2N-2j}) for j = 0..N] as (num, den) pairs on a bundle
    or a block of its cells, T*_0 the identity."""
    return [(FieldPoly([holo_coeffs(b, N)]), LambdaPoly((1,)))] + [
        family_poly(b, j, N - j) for j in range(1, N + 1)]


def _t_star_dens(b: CurvatureBundle, N: int):
    """The denominators of _t_star_pairs(b, N), its families cached on b."""
    return [LambdaPoly((1,))] + [family_poly(b, j, N - j)[1] for j in range(1, N + 1)]


def _cleared_check(check_id, equation, params, b, terms, nums):
    """Checks that the sum of weight * num / den vanishes for every lam, for
    terms [(weight, den)] and nums(block) their numerators on a block of b.

    The terms are brought to the lcm of their denominators, and the cleared
    numerator, a polynomial in lam, must vanish coefficientwise. It is built
    a block of cells, and one cleared term, at a time. The scale is the
    largest coefficient norm of a cleared term."""
    t0 = time.perf_counter()
    cofactors, _ = over_lcm(terms)
    readings = []
    for block in _blocks(b):
        total, scale = FieldPoly(), 0.0
        for cofactor, num in zip(cofactors, nums(block)):
            part = num.mul_poly(cofactor)
            scale = max_abs((scale, part.max_norm()))
            total += part
            del part  # before the next part is built
        readings.append((total.norms(), scale))
    coeff_norms, scale = _merged(readings)
    return tolerance_report(check_id, equation, params, max_abs(coeff_norms), IDENTITY_TOL,
                            scale, details={"coeff_norms": coeff_norms},
                            seconds=time.perf_counter() - t0)


def master_check_numeric(b: CurvatureBundle, N: int):
    """lam N S0 + (lam - n + 2N) S1 = 0, where S0, S1 are the plain and
    index-weighted sums of T*_{2j}(lam) applied to the complementary
    expansion coefficients, decided coefficientwise."""
    terms = list(zip(master3_weights(b.n, N), _t_star_dens(b, N)))
    return [_cleared_check(f"master3-n{b.n}-N{N}", "master-3", {"n": b.n, "N": N}, b, terms,
                           lambda block: [num for num, _ in _t_star_pairs(block, N)])]


def example_2_3_checks(b: CurvatureBundle):
    """The two displayed fourth-order identities with explicit right sides
    g(lam) / ((n - 2 - 2 lam)(n - 4 - 2 lam)), checked as in master_check_numeric."""
    n = b.n
    dens = [family_poly(b, 2, 0)[1], family_poly(b, 1, 1)[1], LambdaPoly((1,)),
            LambdaPoly((n - 2, -2)) * LambdaPoly((n - 4, -2))]

    def nums(c):  # T*_4(1), T*_2(v2), v4 and g on a block
        return [family_poly(c, 2, 0)[0], family_poly(c, 1, 1)[0], FieldPoly([holo_coeffs(c, 2)]),
                FieldPoly([(n - 2) * (c.J**2 - c.Psq) - c.lapJ, 2 * c.Psq - c.J**2])]

    return [_cleared_check(f"ex23-i-n{n}", "example-2.3-i", {"n": n}, b,
                           list(zip([8, 6, 4, 2 - Fraction(n, 2)], dens)), nums),
            _cleared_check(f"ex23-ii-n{n}", "example-2.3-ii", {"n": n}, b,
                           list(zip([1, 1, 1, (LAMBDA - n + 4) / 8], dens)), nums)]


def _qres_v_factors(b: CurvatureBundle, N: int):
    """The scalars of qres_and_v_polys(b, N): the cofactors that bring the
    T*_{2j} terms to the lcm of their denominators, and the quotient and
    remainder of the prefactor's division by that lcm."""
    cofactors, den = over_lcm([(1, den) for den in _t_star_dens(b, N)])
    return (cofactors, *pochhammer(LAMBDA - Fraction(b.n, 2) + 1, N).divmod(den))


def qres_and_v_polys(b, N: int, factors=None):
    """Residue and volume polynomials in lam, with field coefficients on a
    bundle or a block of its cells:
      qres(lam) = -4^N N! (lam + n/2 - 2N + 1)_N S0(lam + n - 2N)
      v(lam)    = (lam + n/2 - 2N + 1)_N (2N S0 + 2 S1)(lam + n - 2N)
    In mu = lam + n - 2N the prefactor is (mu - n/2 + 1)_N, which the common
    denominator of S0 and S1 divides. Returns (qres, v, remainder of that
    division); the remainder is zero unless the families are wrong. factors
    is _qres_v_factors of the bundle."""
    cofactors, quot, rem = factors or _qres_v_factors(b, N)
    s0, v = FieldPoly(), FieldPoly()
    for j, (cofactor, (num, _)) in enumerate(zip(cofactors, _t_star_pairs(b, N))):
        part = num.mul_poly(cofactor)
        v += part.mul_poly(quot * (2 * N + 2 * j))
        s0 += part
        del part  # before the next part is built
    shift = b.n - 2 * N
    qres = s0.mul_poly(quot * -(4**N * factorial(N))).shift(shift)
    return qres, v.shift(shift), rem


def _qres_v_pass(b: CurvatureBundle, N: int, read):
    """The remainder of qres_and_v_polys(b, N) and read(block, qres, v)
    merged over the blocks of b's cells."""
    factors = _qres_v_factors(b, N)
    return factors[2], _merged([read(block, *qres_and_v_polys(block, N, factors)[:2])
                                for block in _blocks(b)])


def _poly_reads(block: _Cells, N: int, qres: FieldPoly, v: FieldPoly):
    """The norms poly_checks reads of a block's qres and v. Proportionality:
    4^{N-1} (N-1)! lam V(lam) equals (n/2 - N) qres(lam); compare
    coefficientwise, one coefficient field of the gap at a time. mul_poly
    skips a vanishing factor, and so does the gap at n = 2N."""
    a, c = float(4 ** (N - 1) * factorial(N - 1)), float(N - Fraction(block.n, 2))
    pairs = zip_longest([0.0] + v.coeffs, qres.coeffs if c else [], fillvalue=0.0)
    gap = max_abs([max_abs(a * x + c * y) for x, y in pairs])
    slope = max_abs(qres.coeffs[1] - block.J) if N == 1 else 0.0
    return qres.norms(), v.norms(), slope, gap


def _poly_reports(b: CurvatureBundle, N: int, rem, reads, t0):
    """poly_checks' reports from the remainder and the merged _poly_reads."""
    qn, vn, slope, gap = reads
    scale = max_abs(qn + vn)
    n = b.n
    params = {"n": n, "N": N}
    reports = [exact_report(f"qres-den-n{n}-N{N}", "Q-pol", params, rem.is_zero(),
                            {"remainder": rem}),
               tolerance_report(f"qres-van-n{n}-N{N}", "Q-van", params, qn[0], IDENTITY_TOL,
                                scale, details={"coeff_norms": qn},
                                seconds=time.perf_counter() - t0)]
    if N == 1:
        reports.append(tolerance_report(f"qres-slope-n{n}", "Q-pol", params, slope,
                                        IDENTITY_TOL, scale, details={"J_norm": max_abs(b.J)}))
    reports.append(tolerance_report(f"vdeg-n{n}-N{N}", "V-pol-deg", params, vn[N],
                                    IDENTITY_TOL, scale, details={"coeff_norms": vn}))
    if n == 2 * N:
        reports.append(tolerance_report(f"vcrit-n{n}-N{N}", "V-van", params, max_abs(vn),
                                        IDENTITY_TOL, scale))
    reports.append(tolerance_report(f"master1-n{n}-N{N}", "master-1", params,
                                    gap, IDENTITY_TOL, scale))
    return reports


def poly_checks(b: CurvatureBundle, N: int):
    """Vanishing, degree, and proportionality checks on the residue and volume
    polynomials, each decided on whole coefficient fields."""
    t0 = time.perf_counter()
    rem, reads = _qres_v_pass(b, N, lambda block, qres, v: _poly_reads(block, N, qres, v))
    return _poly_reports(b, N, rem, reads, t0)


def critical_suite_n4(b: CurvatureBundle, with_poly_checks=False):
    """The five fourth-order critical-case identity checks and, with
    with_poly_checks, poly_checks(b, 2)'s, read in the same pass over the
    cells: crit-d and crit-e read qres there."""
    if b.n != 4:
        raise ValueError("critical suite is defined at n = 4")
    reports = []
    zero = Fraction(0)
    q4 = q4_direct(b)
    p4 = build_P(4, 2)

    t0 = time.perf_counter()
    holo, pole = pole_guarded(lambda: torus_q(b, 2))
    lhs_a = holo / 4
    rhs_a = q4 / 4
    scale = max_abs([max_abs(lhs_a), max_abs(q4)])
    reports.append(tolerance_report("crit-a", "holo-crit", {"n": 4},
                                    max_abs(lhs_a - rhs_a), IDENTITY_TOL, scale,
                                    details={"equivalent_form": "q4 = 16 v4 - lap J", **pole},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    ones = np.ones(b.chart.shape)
    p_dot, dot_pole = pole_guarded(lambda: p4.derivative_at(b, ones, zero)[0])
    p_dot_star, star_pole = pole_guarded(lambda: p4.adjoint().derivative_at(b, ones, zero)[0])
    t2, t2_pole = pole_guarded(lambda: pair_value(family_poly(b, 1, 1), zero)[0])
    lhs_b = 4 * (p_dot_star - p_dot)
    rhs_b = 32 * 2 * t2
    scale = max_abs([max_abs(lhs_b), max_abs(rhs_b), max_abs(b.lapJ)])
    reports.append(tolerance_report("crit-b", "gj-derivative", {"n": 4},
                                    max_abs(lhs_b - rhs_b), IDENTITY_TOL, scale,
                                    details={"closed_form": "both sides -8 lap J",
                                             "closed_form_residual":
                                                 max_abs(lhs_b + 8 * b.lapJ),
                                             **star_pole, **dot_pole, **t2_pole},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    scale = max_abs([max_abs(q4), max_abs(p_dot)])
    reports.append(tolerance_report("crit-c", "property-2", {"n": 4},
                                    max_abs(p_dot - q4), IDENTITY_TOL, scale,
                                    details={"starred_residual":
                                                 max_abs(p_dot_star - q4), **dot_pole},
                                    seconds=time.perf_counter() - t0))
    del holo, lhs_a, rhs_a, ones, p_dot, p_dot_star, t2, lhs_b, rhs_b  # before the pass

    t0 = time.perf_counter()
    t2_dot, t2_pole = pole_guarded(lambda: pair_derivative(family_poly(b, 1, 1), zero)[0])
    t4_dot, t4_pole = pole_guarded(lambda: pair_derivative(family_poly(b, 2, 0), zero)[0])
    lhs_e = np.broadcast_to(8 * (2 * t2_dot + 4 * t4_dot), q4.shape)  # a pole's NaN too
    del t2_dot, t4_dot
    e_seconds = time.perf_counter() - t0

    def read(block, qres, v):
        q4_block = cell_view(q4, block.cells)
        rhs_e = -qres.coeffs[2] - q4_block
        return (qres.norms(), max_abs(qres.coeffs[1] - q4_block),
                max_abs(cell_view(lhs_e, block.cells) - rhs_e), max_abs(rhs_e),
                _poly_reads(block, 2, qres, v) if with_poly_checks else ())

    t0 = time.perf_counter()
    rem, (qn, d_gap, e_gap, rhs_e_norm, poly) = _qres_v_pass(b, 2, read)
    q4_scale = max_abs([max_abs(q4), max_abs(qn)])
    reports.append(tolerance_report("crit-d", "qres-derivative", {"n": 4},
                                    d_gap, IDENTITY_TOL, q4_scale,
                                    details={"qres_coeff_norms": qn},
                                    seconds=time.perf_counter() - t0))

    scale = max_abs([max_abs(lhs_e), rhs_e_norm, q4_scale])
    reports.append(tolerance_report("crit-e", "harmonic-sum", {"n": 4},
                                    e_gap, IDENTITY_TOL, scale,
                                    details={"harmonic_sum": "1 (single term)",
                                             **t4_pole, **t2_pole},
                                    seconds=e_seconds))
    if with_poly_checks:
        reports.extend(_poly_reports(b, 2, rem, poly, t0))
    return reports


def conformal_covariance_q4(base: CurvatureBundle, omega, tol: float) -> CheckReport:
    """Transformation law e^{4w} Q4(phi + w) = Q4(phi) + P4(phi)(w) at n = 4,
    on the metric of base. A constant shift holds at rounding level on any
    chart; a generic one leaves the Leibniz error of base's
    derivative, h^4 on a stencil chart and rounding on the spectral one; tol
    is the bound for base's chart."""
    if base.n != 4:
        raise ValueError("transformation law is checked at n = 4")
    t0 = time.perf_counter()
    omega = np.asarray(omega)
    shifted = curvature(base.chart, base.phi + omega)
    lhs = np.exp(4 * omega) * q4_direct(shifted)
    p4_omega, pole = pole_guarded(lambda: build_P(4, 2).apply_at(base, omega, Fraction(0))[0])
    rhs = q4_direct(base) + p4_omega
    scale = max_abs([max_abs(lhs), max_abs(rhs), max_abs(p4_omega)])
    return tolerance_report("conformal-covariance-q4", "q-transform", {"n": 4},
                            max_abs(lhs - rhs), tol, scale, details=pole,
                            seconds=time.perf_counter() - t0)


def _metric(chart: TorusChart, preset: str, seed: int, phi):
    """Metric of the preset sampled on the chart, or of the supplied field,
    which must have the chart's shape."""
    if phi is None:
        return curvature(chart, preset_phi(chart, preset, seed=seed))
    if phi.shape != chart.shape:
        raise ValueError(f"phi shape {phi.shape} does not match grid {chart.shape}")
    return curvature(chart, phi)


def _spectral_metric(n: int, preset: str, seed: int, phi):
    """The metric on the spectral chart: the preset sampled there, or a
    supplied field's stride subsample, None if its grid has none."""
    if phi is not None:
        stride, rest = divmod(phi.shape[0], SPECTRAL_GRID)
        if rest:
            return None
        phi = phi[::stride, ::stride]
    return _metric(TorusChart(n, (SPECTRAL_GRID, SPECTRAL_GRID), "spectral"), preset, seed, phi)


def flat_laplacian_power(chart: TorusChart, f, N: int):
    """Lap0^N f, the N-th power of the flat Laplacian, as one Fourier
    multiplier (-|k|^2)^N over the wavenumbers of the spectral d1."""
    k0, k1 = (wavenumbers(size) ** 2 for size in chart.shape)
    return np.fft.ifft2((-np.add.outer(k0, k1)) ** N * np.fft.fft2(f)).real


def _flat_reports(n: int, preset: str, seed: int, phi):
    """The GJMS operators and Q-curvatures of g = e^{2 phi} (flat) on the
    spectral chart against the flat base. Conformal covariance of the GJMS
    operators (Graham-Jenne-Mason-Sparling) and Branson's law for Q_n give
    them from the flat Laplacian Lap0:

        P_{2N}(n/2 - N) f = e^{-(n/2+N) phi} Lap0^N (e^{(n/2-N) phi} f),
        Q_{2N} = (-1)^N e^{-(n/2+N) phi} Lap0^N (e^{(n/2-N) phi}) / (n/2 - N), 2N < n,
        Q_n    = (-1)^N e^{-n phi} Lap0^N phi, 2N = n.

    gjms-flat applies build_P to f = 1 + trig2(seed + 3), q-flat is torus_q,
    both for N <= min(n/2, 3); none where a supplied field has no sample."""
    b = _spectral_metric(n, preset, seed, phi)
    if b is None:
        return []
    f = 1.0 + preset_phi(b.chart, "trig2", seed=seed + 3)

    reports = []
    for N in range(1, min(n // 2, 3) + 1):
        t0 = time.perf_counter()
        mu = Fraction(n, 2) - N
        down, up = np.exp(-(n / 2 + N) * b.phi), np.exp(float(mu) * b.phi)
        params = {"n": n, "N": N, "grid": SPECTRAL_GRID}
        gjms, pole = pole_guarded(lambda: build_P(n, N).apply_at(b, f, mu)[0])
        want = down * flat_laplacian_power(b.chart, up * f, N)
        reports.append(tolerance_report(f"gjms-flat-n{n}-N{N}", "gjms-flat", params,
                                        max_abs(gjms - want), FLAT_TOL[N], max_abs(want),
                                        details=pole, seconds=time.perf_counter() - t0))
        t0 = time.perf_counter()
        want = (-1) ** N * down * flat_laplacian_power(b.chart, up / float(mu) if mu else b.phi, N)
        q, pole = pole_guarded(lambda: torus_q(b, N))
        reports.append(tolerance_report(f"q-flat-n{n}-N{N}", "q-flat", params,
                                        max_abs(q - want), FLAT_TOL[N], max_abs(want),
                                        details=pole, seconds=time.perf_counter() - t0))
    return reports


def _generic_shift(preset: str, seed: int, phi):
    """conformal-covariance-q4 under the trig3 shift on the spectral chart,
    or nothing where a supplied field has no sample there."""
    b = _spectral_metric(4, preset, seed, phi)
    return [] if b is None else [conformal_covariance_q4(
        b, preset_phi(b.chart, "trig3", seed=seed + 5), tol=LAW_TOL)]


def _adjoint_reports(b: CurvatureBundle, seed: int):
    rng = np.random.default_rng(seed + 211)
    f = rng.standard_normal(b.chart.shape)
    g = rng.standard_normal(b.chart.shape)
    n = b.n
    tol = ADJOINT_TOL * (b.chart.shape[0] / SPECTRAL_GRID) ** 1.25
    W, pdiv = volume_weight(b), schouten_flux(b)
    cases = {"lap": lambda h, grad: laplacian(b, h, grad),
             "pdiv": lambda h, grad: divergence_form(b, pdiv, h, grad)}
    # <L f, g> for both cases, then <f, L g>: each of f and g is
    # differentiated once, and one gradient pair is alive at a time
    pairings, seconds = {name: [] for name in cases}, dict.fromkeys(cases, 0.0)
    for h, pairing in ((f, lambda Lf: inner(W, Lf, g)), (g, lambda Lg: inner(W, f, Lg))):
        grad = gradient(b.chart, h)
        for name, op in cases.items():
            t0 = time.perf_counter()
            pairings[name].append(pairing(op(h, grad)))
            seconds[name] += time.perf_counter() - t0
        del grad
    scale = abs(inner(W, f, g)) + 1.0
    return [tolerance_report(f"adjoint-{name}-n{n}", "self-adjointness", {"n": n},
                             abs(lhs - rhs), tol, scale, seconds=seconds[name])
            for name, (lhs, rhs) in pairings.items()]


def _dimension_reports(n: int, size: int, preset: str, seed: int, phi):
    """numeric_suite's checks at one dimension: geometry on the spectral chart,
    then algebra on the run's grid. Each bundle and its family polynomials end
    with the call that built them, so the suite holds one metric at a time."""
    reports = _flat_reports(n, preset, seed, phi)
    b = _metric(TorusChart(n, (size, size)), preset, seed, phi)
    reports.extend(_adjoint_reports(b, seed))

    t0 = time.perf_counter()
    holo, pole = pole_guarded(lambda: torus_q(b, 2))
    q4 = q4_direct(b)
    dual_gap = max_abs(holo - q4)
    scale = max_abs(q4)
    del holo, q4
    reports.append(tolerance_report(f"q4-dual-n{n}", "holo-Q4", {"n": n},
                                    dual_gap, IDENTITY_TOL, scale, details=pole,
                                    seconds=time.perf_counter() - t0))

    for N in (1, 2):
        reports.extend(master_check_numeric(b, N))
        reports.extend(poly_checks(b, N))
    reports.extend(example_2_3_checks(b))
    return reports


def numeric_suite(n_values=(4, 6), size: int = 64, preset: str = "trig1",
                  seed: int = 7, phi=None):
    """Criterion checks for torus metrics: GJMS operators and Q-curvatures
    against the flat base on the spectral chart, and on the run's grid
    adjoints, Q-curvature duality, master relations, displayed identities,
    and the residue and volume polynomials. phi, when given, replaces the
    preset at the full grid size (its stride subsample feeds the spectral
    chart). The dimensions run one after another."""
    n_values = tuple(n_values)
    for n in n_values:
        if n < MIN_NUMERIC_N:
            raise ValueError(f"numeric suite needs n >= {MIN_NUMERIC_N} for the fourth-order terms")
    return [r for n in n_values for r in _dimension_reports(n, size, preset, seed, phi)]


def critical_n4_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                      phi=None, with_poly_checks: bool = True):
    """Critical-case checks at n = 4, the N = 2 polynomial checks if
    with_poly_checks, and the transformation law under a generic shift on
    the spectral chart."""
    b = _metric(TorusChart(4, (size, size)), preset, seed, phi)
    reports = critical_suite_n4(b, with_poly_checks=with_poly_checks)
    return reports + _generic_shift(preset, seed, phi)


def conformal_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                    phi=None, with_generic_shift: bool = True):
    """Transformation law at n = 4 under a constant shift on the run's grid
    and, if with_generic_shift, under a generic shift on the spectral chart."""
    base = _metric(TorusChart(4, (size, size)), preset, seed, phi)
    tol = CONST_SHIFT_TOL * (size / SPECTRAL_GRID) ** 4
    rep = conformal_covariance_q4(base, 0.3 * np.ones(base.chart.shape), tol)
    rep.id = "conformal-const"
    reports = [rep]
    if with_generic_shift:
        reports.extend(_generic_shift(preset, seed, phi))
    return reports


def einstein_checks(n: int, J: Fraction):
    """Exact consistency checks for the constant-curvature model."""
    from .sphere import SphereContext, sphere_Q

    model = EinsteinModel(n, J)
    params = {"n": n, "J": model.J, "mode": "constant-curvature"}
    v = [model.v(k) for k in range(4)]
    ts = values_on_one(n, v)
    # (id, equation, lhs, rhs) of each lhs == rhs identity; faults[id], if
    # set, is why its rhs could not be built
    faults = {}
    identities = [
        ("einstein-v2", "v2", model.v(1), -model.J / 2),
        ("einstein-v4", "v4", model.v(2), (model.J**2 - model.schouten_norm_sq()) / 8),
        ("einstein-q4", "holo-Q4", constant_q(n, ts, v, 2), model.q4()),
    ]
    if n >= 6:
        # Einstein metrics scale the sphere: Q_{2N} = (2J/n)^N Q_{2N}(S^n).
        q6, faults["einstein-q6"] = attempt(sphere_Q, SphereContext(n), 3)
        identities.append(("einstein-q6", "holo-Q6", constant_q(n, ts, v, 3),
                           None if q6 is None else (2 * model.J / n) ** 3 * q6))

    # master-3 as an identity of rational functions in the symbolic lam
    for N in (1, 2):
        residual = sum(w * t for w, t in zip(master3_weights(n, N), constant_terms(ts, v, N)))
        identities.append((f"einstein-master3-N{N}", "master-3", residual, 0))
    extension = dict(params, extension=True)
    return [exact_report(check_id, equation, extension, lhs == rhs,
                         {"lhs": lhs, "rhs": rhs}
                         | ({"reason": faults[check_id]} if faults.get(check_id) else {}))
            for check_id, equation, lhs, rhs in identities]
