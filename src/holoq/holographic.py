"""Holographic coefficients, Q-curvatures, and the numeric identity suites.

The verifier side of the package. One holographic formula, holographic_q,
gives every Q_{2N} from the values T*_{2j}(n/2 - N)(v_{2N-2j}), read off the
family polynomials on torus metrics (torus_q) and off the family values on
constants for the constant-curvature model. The suites check the master
relations, the displayed identities and the degree/vanishing statements as
polynomial identities in the spectral parameter, with field coefficients,
and run the critical four-dimensional identity suite.
"""

from __future__ import annotations

import gc
import os
import pickle
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
    grad_pair_J,
    gradient,
    holo_coeffs,
    inner,
    laplacian,
    oracle_curvature,
)
from .families import (
    FieldPoly,
    build_P,
    build_T,
    constant_terms,
    master3_weights,
    over_lcm,
    pair_derivative,
    pair_value,
    values_on_one,
)
from .grid import TorusChart
from .lambda_algebra import LAMBDA, LambdaPoly, binomial, pochhammer
from .presets import preset_phi
from .reports import (
    CheckReport,
    attempt,
    exact_report,
    max_abs,
    refinement_report,
    tolerance_report,
)

DEFAULT_LAMBDAS = (Fraction(0), Fraction(1, 3), Fraction(5), Fraction(-2), Fraction(7, 2))

# The numeric suite checks fourth-order families, which need n >= 4.
MIN_NUMERIC_N = 4
# Its refinement-gated checks read a ratio from the half grid, which has to
# be in the asymptotic h^4 regime: at 16 the 8-point half grid gives
# gradj-forms-n4 ratios of 6.7-7.9 against the gate's 8.
MIN_NUMERIC_GRID = 32
# A forked worker costs a cold process about 25 ms of system time (page
# tables, copy-on-write faults, teardown) whatever the grid, while one
# dimension's checks take about 15 ms at 64^2 and 30 ms at 128^2 (2-CPU VM).
# Cold `verify numeric --n 4,6` with a worker lost 12 of 16 pairs at 64^2 and
# won 12 of 16 at 128^2, so smaller grids run their dimensions in turn.
MIN_CONCURRENT_CELLS = 128 * 128


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


def holographic_q(N: int, values):
    """The holographic formula for every Q-curvature,

        Q_{2N} = (-1)^N 4^{N-1} ((N-1)!)^2 sum_{j<N} (2N - 2j) T*_{2j}(n/2 - N)(v_{2N-2j}),

    from values[j] = T*_{2j}(n/2 - N)(v_{2N-2j}), j = 0..N-1: fields on a
    torus, rationals on a constant-curvature metric."""
    return (-1) ** N * 4 ** (N - 1) * factorial(N - 1) ** 2 * sum(
        (2 * N - 2 * j) * values[j] for j in range(N))


def torus_q(b: CurvatureBundle, N: int):
    """Q_{2N} of a torus metric by holographic_q. Its point n/2 - N is never
    a pole: the denominators of T*_{2j} vanish only at n/2 - M, M <= j < N."""
    mu = Fraction(b.n, 2) - N
    return holographic_q(N, [holo_coeffs(b, N)] + [
        pair_value(family_poly(b, j, N - j), mu)[0] for j in range(1, N)])


def constant_q(n: int, ts, v, N: int) -> Fraction:
    """Q_{2N} of a constant-curvature metric by holographic_q, from the family
    values ts[j] = T_{2j}(lambda)(1) and the coefficients v[k] = v_{2k}, j, k <= N."""
    mu = Fraction(n, 2) - N
    return holographic_q(N, [t(mu) for t in constant_terms(ts, v, N)[:N]])


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
        return binomial(Fraction(self.n), k) * (-self.J / (2 * self.n)) ** k

    def schouten_norm_sq(self) -> Fraction:
        return self.J**2 / self.n

    def q4(self) -> Fraction:
        return self.J**2 * (self.n**2 - 4) / (2 * self.n)


def _t_star_pairs(b: CurvatureBundle, N: int):
    """[T*_{2j}(lam)(v_{2N-2j}) for j = 0..N] as (num, den) pairs, T*_0 the identity."""
    return [(FieldPoly([holo_coeffs(b, N)]), LambdaPoly((1,)))] + [
        family_poly(b, j, N - j) for j in range(1, N + 1)]


def _cleared_sum(terms):
    """The numerator of the sum of (weight, (num, den)) terms over the lcm
    of their denominators, and the coefficient norms of each cleared term.
    One cleared term is alive at a time."""
    parts, _ = over_lcm(terms)
    total, norms = FieldPoly(), []
    for part in parts:
        norms.append(part.norms())
        total += part
        del part  # before the next part is built
    return total, norms


def _cleared_checks(check_id, equation, params, terms, lambdas, tol):
    """Checks that the sum of (weight, (num, den)) terms vanishes for every lam.

    The terms are brought to the lcm of their denominators, and the cleared
    numerator must vanish coefficientwise (check_id). It is also evaluated at
    each lam as a spot check (check_id-l<lam>); being a polynomial, it has no
    poles. The scale is the largest cleared term, bounded at lam by
    sum_k |lam|^k |c_k| from its coefficient norms."""
    t0 = time.perf_counter()
    total, norms = _cleared_sum(terms)
    reports = [tolerance_report(check_id, equation, params, total.max_norm(), tol,
                                max_abs([max_abs(ns) for ns in norms]),
                                details={"coeff_norms": total.norms()},
                                seconds=time.perf_counter() - t0)]
    for lam in map(Fraction, lambdas):
        t0 = time.perf_counter()
        scale = max_abs([sum(c * abs(float(lam)) ** k for k, c in enumerate(ns))
                         for ns in norms])
        reports.append(tolerance_report(f"{check_id}-l{lam}", equation,
                                        {**params, "lambda": lam},
                                        np.max(np.abs(total.eval(lam))), tol, scale,
                                        seconds=time.perf_counter() - t0))
    return reports


def master_check_numeric(b: CurvatureBundle, N: int, lambdas, tol: float = 1e-6):
    """lam N S0 + (lam - n + 2N) S1 = 0, where S0, S1 are the plain and
    index-weighted sums of T*_{2j}(lam) applied to the complementary
    expansion coefficients: coefficientwise, and at each of lambdas."""
    terms = list(zip(master3_weights(b.n, N), _t_star_pairs(b, N)))
    return _cleared_checks(f"master3-n{b.n}-N{N}", "master-3", {"n": b.n, "N": N},
                           terms, lambdas, tol)


def example_2_3_checks(b: CurvatureBundle, lambdas, tol: float = 1e-6):
    """The two displayed fourth-order identities with explicit right sides
    g(lam) / ((n - 2 - 2 lam)(n - 4 - 2 lam)), checked as in master_check_numeric."""
    n = b.n
    g = (FieldPoly([(n - 2) * (b.J**2 - b.Psq) - b.lapJ, 2 * b.Psq - b.J**2]),
         LambdaPoly((n - 2, -2)) * LambdaPoly((n - 4, -2)))
    t4, t2 = family_poly(b, 2, 0), family_poly(b, 1, 1)
    v4 = (FieldPoly([holo_coeffs(b, 2)]), LambdaPoly((1,)))
    return (_cleared_checks(f"ex23-i-n{n}", "example-2.3-i", {"n": n},
                            [(8, t4), (6, t2), (4, v4), (2 - Fraction(n, 2), g)], lambdas, tol)
            + _cleared_checks(f"ex23-ii-n{n}", "example-2.3-ii", {"n": n},
                              [(1, t4), (1, t2), (1, v4), ((LAMBDA - n + 4) / 8, g)],
                              lambdas, tol))


def qres_and_v_polys(b: CurvatureBundle, N: int):
    """Residue and volume polynomials in lam, with grid-field coefficients:
      qres(lam) = -4^N N! (lam + n/2 - 2N + 1)_N S0(lam + n - 2N)
      v(lam)    = (lam + n/2 - 2N + 1)_N (2N S0 + 2 S1)(lam + n - 2N)
    In mu = lam + n - 2N the prefactor is (mu - n/2 + 1)_N, which the common
    denominator of S0 and S1 divides. Returns (qres, v, remainder of that
    division); the remainder is zero unless the families are wrong."""
    parts, den = over_lcm([(1, pair) for pair in _t_star_pairs(b, N)])
    quot, rem = pochhammer(LAMBDA - Fraction(b.n, 2) + 1, N).divmod(den)
    s0, v = FieldPoly(), FieldPoly()
    for j, part in enumerate(parts):
        v += part.mul_poly(quot * (2 * N + 2 * j))
        s0 += part
        del part  # before the next part is built
    shift = b.n - 2 * N
    qres = s0.mul_poly(quot * -(4**N * factorial(N))).shift(shift)
    return qres, v.shift(shift), rem


def poly_checks(b: CurvatureBundle, N: int, tol: float = 1e-6, polys=None):
    """Vanishing, degree, and proportionality checks on the residue and volume
    polynomials, each decided on whole coefficient fields. polys, when given,
    is qres_and_v_polys(b, N) already built."""
    t0 = time.perf_counter()
    qres, v, rem = polys or qres_and_v_polys(b, N)
    qn, vn = qres.norms(), v.norms()
    scale = max_abs(qn + vn)
    n = b.n
    params = {"n": n, "N": N}
    reports = [exact_report(f"qres-den-n{n}-N{N}", "Q-pol", params, rem.is_zero(),
                            {"remainder": rem}),
               tolerance_report(f"qres-van-n{n}-N{N}", "Q-van", params, qn[0], tol, scale,
                                details={"coeff_norms": qn}, seconds=time.perf_counter() - t0)]
    if N == 1:
        reports.append(tolerance_report(f"qres-slope-n{n}", "Q-pol", params,
                                        np.max(np.abs(qres.coeffs[1] - b.J)), tol, scale,
                                        details={"J_norm": float(np.max(np.abs(b.J)))}))
    reports.append(tolerance_report(f"vdeg-n{n}-N{N}", "V-pol-deg", params, vn[N], tol, scale,
                                    details={"coeff_norms": vn}))
    if n == 2 * N:
        reports.append(tolerance_report(f"vcrit-n{n}-N{N}", "V-van", params, max_abs(vn), tol,
                                        scale))
    # Proportionality between the two polynomials: 4^{N-1} (N-1)! lam V(lam)
    # equals (n/2 - N) qres(lam); compare coefficientwise, one coefficient
    # field of the gap at a time. mul_poly skips a vanishing factor, and so
    # does the gap at n = 2N.
    a, c = float(4 ** (N - 1) * factorial(N - 1)), float(N - Fraction(n, 2))
    pairs = zip_longest([0.0] + v.coeffs, qres.coeffs if c else [], fillvalue=0.0)
    gap = max_abs([max_abs(a * x + c * y) for x, y in pairs])
    reports.append(tolerance_report(f"master1-n{n}-N{N}", "master-1", params,
                                    gap, tol, scale))
    return reports


def critical_suite_n4(b: CurvatureBundle, tol: float = 1e-5, polys=None):
    """The five fourth-order critical-case identity checks. polys, when
    given, is qres_and_v_polys(b, 2) already built."""
    if b.n != 4:
        raise ValueError("critical suite is defined at n = 4")
    reports = []
    zero = Fraction(0)
    q4 = q4_direct(b)
    p4 = build_P(4, 2)

    t0 = time.perf_counter()
    lhs_a = torus_q(b, 2) / 4
    rhs_a = q4 / 4
    scale = max(np.max(np.abs(lhs_a)), np.max(np.abs(q4)))
    reports.append(tolerance_report("crit-a", "holo-crit", {"n": 4},
                                    np.max(np.abs(lhs_a - rhs_a)), tol, scale,
                                    details={"equivalent_form": "q4 = 16 v4 - lap J"},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    ones = np.ones(b.chart.shape)
    p_dot, _ = p4.derivative_at(b, ones, zero)
    p_dot_star, _ = p4.adjoint().derivative_at(b, ones, zero)
    lhs_b = 4 * (p_dot_star - p_dot)
    rhs_b = 32 * 2 * pair_value(family_poly(b, 1, 1), zero)[0]
    scale = max(np.max(np.abs(lhs_b)), np.max(np.abs(rhs_b)), np.max(np.abs(b.lapJ)))
    reports.append(tolerance_report("crit-b", "gj-derivative", {"n": 4},
                                    np.max(np.abs(lhs_b - rhs_b)), tol, scale,
                                    details={"closed_form": "both sides -8 lap J",
                                             "closed_form_residual":
                                                 float(np.max(np.abs(lhs_b + 8 * b.lapJ)))},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    scale = max(np.max(np.abs(q4)), np.max(np.abs(p_dot)))
    reports.append(tolerance_report("crit-c", "property-2", {"n": 4},
                                    np.max(np.abs(p_dot - q4)), tol, scale,
                                    details={"starred_residual":
                                                 float(np.max(np.abs(p_dot_star - q4)))},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    qres = (polys or qres_and_v_polys(b, 2))[0]
    q4_scale = max(np.max(np.abs(q4)), qres.max_norm())
    reports.append(tolerance_report("crit-d", "qres-derivative", {"n": 4},
                                    np.max(np.abs(qres.coeffs[1] - q4)), tol, q4_scale,
                                    details={"qres_coeff_norms": qres.norms()},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    t2_dot, _ = pair_derivative(family_poly(b, 1, 1), zero)
    t4_dot, _ = pair_derivative(family_poly(b, 2, 0), zero)
    lhs_e = 8 * (2 * t2_dot + 4 * t4_dot)
    rhs_e = -qres.coeffs[2] - q4
    scale = max(np.max(np.abs(lhs_e)), np.max(np.abs(rhs_e)), q4_scale)
    reports.append(tolerance_report("crit-e", "harmonic-sum", {"n": 4},
                                    np.max(np.abs(lhs_e - rhs_e)), tol, scale,
                                    details={"harmonic_sum": "1 (single term)"},
                                    seconds=time.perf_counter() - t0))
    return reports


def conformal_covariance_q4(base: CurvatureBundle, omega, tol: float = 1e-5,
                            coarse: CurvatureBundle | None = None) -> CheckReport:
    """Transformation law e^{4w} Q4(phi + w) = Q4(phi) + P4(phi)(w) at n = 4,
    on the metric of base. A generic shift leaves a residual limited by the
    h^4 Leibniz error of the stencils: given coarse, the same metric on half
    the grid (omega subsampled to it), the law is gated by refinement rather
    than by tol."""
    if base.n != 4:
        raise ValueError("transformation law is checked at n = 4")
    t0 = time.perf_counter()
    omega = np.asarray(omega)
    shifted = curvature(base.chart, base.phi + omega) if np.any(omega) else base
    lhs = np.exp(4 * omega) * q4_direct(shifted)
    p4_omega, _ = build_P(4, 2).apply_at(base, omega, Fraction(0))
    rhs = q4_direct(base) + p4_omega
    gap = float(np.max(np.abs(lhs - rhs)))
    if coarse is not None:
        coarse_gap = conformal_covariance_q4(coarse, omega[::2, ::2]).residual
        return refinement_report("conformal-covariance-q4", "q-transform", {"n": 4},
                                 coarse_gap, gap, seconds=time.perf_counter() - t0)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), np.max(np.abs(p4_omega)))
    return tolerance_report("conformal-covariance-q4", "q-transform", {"n": 4},
                            gap, tol, scale, seconds=time.perf_counter() - t0)


def _metric(n: int, size: int, preset: str, seed: int, phi, half: bool = False):
    """Metric of the preset sampled on the size grid, or of the supplied
    field, which must have that shape; with half, the same metric on half
    the grid, a supplied field subsampled 2:1."""
    if half:
        size, phi = size // 2, None if phi is None else phi[::2, ::2]
    ch = TorusChart(n, (size, size))
    if phi is None:
        return curvature(ch, preset_phi(ch, preset, seed=seed))
    if phi.shape != ch.shape:
        raise ValueError(f"phi shape {phi.shape} does not match grid {ch.shape}")
    return curvature(ch, phi)


def _refinement_gaps(b: CurvatureBundle):
    """Discretization-limited gaps on one grid: J against the metric-route
    oracle, and the two forms of the pairing (dJ, dJ), from the bundle's
    own derivatives of J."""
    metric_J = oracle_curvature(b.chart, b.phi, route="metric")["J"]
    return (float(np.max(np.abs(b.J - metric_J))),
            float(np.max(np.abs(grad_pair_J(b, b.J, "commutator", lap=b.lapJ)
                                - grad_pair_J(b, b.J, "direct", grad=b.dJ)))))


def _curvature_reports(n: int, size: int, preset: str, seed: int, tol: float,
                       phi=None):
    reports = []
    t0 = time.perf_counter()
    b = _metric(n, size, preset, seed, phi)
    oracle = oracle_curvature(b.chart, b.phi)
    gap = max(np.max(np.abs(b.J - oracle["J"])), np.max(np.abs(b.Psq - oracle["Psq"])),
              max(np.max(np.abs(b.P[i][k] - oracle["P_active"][i][k]))
                  for i in range(2) for k in range(2)))
    scale = max(np.max(np.abs(oracle["J"])), np.max(np.abs(oracle["Psq"])))
    del oracle
    reports.append(tolerance_report(f"curv-oracle-n{n}", "schouten-formula",
                                    {"n": n, "grid": size, "preset": preset},
                                    gap, tol, scale, seconds=time.perf_counter() - t0))

    # The half-grid metric goes before the full-grid work.
    t0 = time.perf_counter()
    coarse = _refinement_gaps(_metric(n, size, preset, seed, phi, half=True))
    fine = _refinement_gaps(b)
    reports.append(refinement_report(f"curv-refine-n{n}", "schouten-formula",
                                     {"n": n, "grids": [size // 2, size], "preset": preset},
                                     coarse[0], fine[0], seconds=time.perf_counter() - t0))
    reports.append(refinement_report(f"gradj-forms-n{n}", "pairing-forms", {"n": n},
                                     coarse[1], fine[1]))
    return b, reports


# The weighted adjoints are exact at the matrix level, so their residuals are
# rounding-limited and get a bound of their own, independent of --tol.
ADJOINT_TOL = 1e-8


def _adjoint_reports(b: CurvatureBundle, seed: int):
    rng = np.random.default_rng(seed + 211)
    f = rng.standard_normal(b.chart.shape)
    g = rng.standard_normal(b.chart.shape)
    n = b.n
    reports = []
    # each of f and g is differentiated once for all three cases
    grad_f, grad_g = gradient(b.chart, f), gradient(b.chart, g)
    lap_f, lap_g = laplacian(b, f, grad_f), laplacian(b, g, grad_g)
    # the divergence form's Schouten case, B = -e^{(n-4) phi} P
    pdiv = tuple(-b.en4w * p for p in (b.P[0][0], b.P[0][1], b.P[1][1]))
    cases = {
        "lap": lambda: inner(b, lap_f, g) - inner(b, f, lap_g),
        "pdiv": lambda: (inner(b, divergence_form(b, pdiv, f, grad_f), g)
                         - inner(b, f, divergence_form(b, pdiv, g, grad_g))),
        "gj": lambda: (inner(b, grad_pair_J(b, f, lap=lap_f), g)
                       + inner(b, f, grad_pair_J(b, g, lap=lap_g))
                       + inner(b, f, b.lapJ * g)),
    }
    for name, thunk in cases.items():
        t0 = time.perf_counter()
        res = abs(thunk())
        scale = abs(inner(b, f, g)) + 1.0
        reports.append(tolerance_report(f"adjoint-{name}-n{n}", "self-adjointness",
                                        {"n": n}, res, ADJOINT_TOL, scale,
                                        seconds=time.perf_counter() - t0))
    return reports


def _dimension_reports(n: int, size: int, preset: str, seed: int, lambdas, tol: float,
                       phi):
    """numeric_suite's checks at one dimension. The bundle and its family
    polynomials end with this call, so the suite holds one metric at a time."""
    b, reports = _curvature_reports(n, size, preset, seed, tol, phi=phi)
    reports.extend(_adjoint_reports(b, seed))

    t0 = time.perf_counter()
    dual_gap = np.max(np.abs(torus_q(b, 2) - q4_direct(b)))
    scale = np.max(np.abs(q4_direct(b)))
    reports.append(tolerance_report(f"q4-dual-n{n}", "holo-Q4", {"n": n},
                                    dual_gap, tol, scale,
                                    seconds=time.perf_counter() - t0))

    for N in (1, 2):
        reports.extend(master_check_numeric(b, N, lambdas, tol=tol))
        reports.extend(poly_checks(b, N, tol=tol))
    reports.extend(example_2_3_checks(b, lambdas, tol=tol))
    return reports


def _share_outcomes(share, args):
    """(n, ok, reports or exception) for the dimensions of one share, in
    order, ending at the first exception."""
    outcomes = []
    for n in share:
        try:
            outcomes.append((n, True, _dimension_reports(n, *args)))
        except Exception as exc:
            outcomes.append((n, False, exc))
            break
    return outcomes


def _run_child(share, args, fd):
    """Body of a forked child: run the share, write its pickled outcomes to
    the pipe end fd, and leave the process without returning into the
    caller's stack. os._exit runs no atexit handler and flushes no inherited
    stdio buffer, so nothing is printed or written twice. The exit status is
    0 only after a complete write."""
    status = 1
    try:
        outcomes = _share_outcomes(share, args)
        n, ok, value = outcomes[-1]
        if not ok:
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                # The caller gets what it can read, the formatted traceback.
                # Imported here, the module stays out of every other process.
                import traceback
                outcomes[-1] = n, ok, RuntimeError("".join(traceback.format_exception(value)))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes))
        status = 0
    finally:
        os._exit(status)


def _all_dimension_reports(n_values, args, workers):
    """_dimension_reports(n, *args) for every n, concatenated in n_values
    order, raising the exception of the first failing dimension.

    The dimensions share nothing, so with w > 1 workers dimension i runs in
    share i % w: share 0 here, each other share in a child made with
    os.fork, which starts from this process's memory without pickling the
    inputs or importing again. Each child sends its outcomes back over a
    pipe. Every child is reaped before this returns or raises, and one that
    ends without a complete payload raises RuntimeError."""
    if workers <= 1:
        reports = []
        for n in n_values:
            reports.extend(_dimension_reports(n, *args))
        return reports
    shares = [n_values[i::workers] for i in range(workers)]
    children, ended = [], []
    # The children's cyclic collector then leaves alone, and does not copy,
    # the pages of every object the parent already holds.
    gc.freeze()
    try:
        for i in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(shares[i], args, w)
            os.close(w)
            children.append((i, pid, r))
        outcomes = {0: _share_outcomes(shares[0], args)}
    finally:
        for i, pid, r in children:
            with os.fdopen(r, "rb") as pipe:
                payload = pipe.read()
            ended.append((i, payload, os.waitpid(pid, 0)[1]))
        gc.unfreeze()
    for i, payload, status in ended:
        if status == 0 and payload:
            outcomes[i] = pickle.loads(payload)
        else:
            outcomes[i] = [(shares[i][0], False, RuntimeError(
                f"numeric suite worker for n = {list(shares[i])} ended without its "
                f"reports (wait status {status})"))]
    # A share stops at its first failure, which precedes its missing slots.
    slots = [None] * len(n_values)
    for i, share_outcomes in outcomes.items():
        for j, (_, ok, value) in enumerate(share_outcomes):
            slots[i + j * workers] = ok, value
    reports = []
    for ok, value in slots:
        if not ok:
            raise value
        reports.extend(value)
    return reports


def numeric_suite(n_values=(4, 6), size: int = 64, preset: str = "trig1",
                  seed: int = 7, lambdas=DEFAULT_LAMBDAS, tol: float = 1e-6, phi=None):
    """Criterion checks for torus metrics: curvature routes, adjoints,
    Q-curvature duality, master relations, displayed identities, and the
    residue and volume polynomials. phi, when given, replaces the preset at
    the full grid size (its 2:1 subsample feeds the refinement checks). From
    MIN_CONCURRENT_CELLS grid cells on, the dimensions run concurrently on
    the usable CPUs; the reports are those of running them one after another."""
    n_values = tuple(n_values)
    for n in n_values:
        if n < MIN_NUMERIC_N:
            raise ValueError(f"numeric suite needs n >= {MIN_NUMERIC_N} for the fourth-order terms")
    workers = 1
    if (size * size >= MIN_CONCURRENT_CELLS
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        workers = min(len(n_values), len(os.sched_getaffinity(0)))
    return _all_dimension_reports(n_values, (size, preset, seed, lambdas, tol, phi), workers)


def critical_n4_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                      tol: float = 1e-5, phi=None, reported=frozenset()):
    """Critical-case checks at n = 4, the N = 2 polynomial checks unless
    reported (ids the run has decided) holds them, and the transformation
    law under a generic shift."""
    b = _metric(4, size, preset, seed, phi)
    polys = qres_and_v_polys(b, 2)
    reports = critical_suite_n4(b, tol=tol, polys=polys)
    if "qres-den-n4-N2" not in reported:  # poly_checks reports its ids together
        reports.extend(poly_checks(b, 2, tol=tol, polys=polys))
    # b is the law's base on whichever of its grids (see conformal_suite) is the run's
    fine = b if phi is not None else _metric(4, 2 * size, preset, seed, phi)
    coarse = b if phi is None else _metric(4, size, preset, seed, phi, half=True)
    omega = preset_phi(fine.chart, "trig3", seed=seed + 5)
    reports.append(conformal_covariance_q4(fine, omega, coarse=coarse))
    return reports


def conformal_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                    tol: float = 1e-5, phi=None, reported=frozenset()):
    """Transformation law at n = 4 under a zero, a constant and, unless
    reported holds critical_n4_suite's id for it, a generic shift. Preset
    input runs on the doubled grid; a supplied field cannot be upsampled
    and runs at its own."""
    law_size = size if phi is not None else 2 * size
    base = _metric(4, law_size, preset, seed, phi)
    reports = []
    for name, omega in (("zero", base.chart.zeros()), ("const", 0.3 * np.ones(base.chart.shape))):
        rep = conformal_covariance_q4(base, omega, tol=tol)
        rep.id = f"conformal-{name}"
        reports.append(rep)
    if "conformal-covariance-q4" not in reported:
        omega = preset_phi(base.chart, "trig3", seed=seed + 5)
        reports.append(conformal_covariance_q4(
            base, omega, coarse=_metric(4, law_size, preset, seed, phi, half=True)))
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
