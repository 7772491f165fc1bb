"""Holographic coefficients, Q-curvatures, and the numeric identity suites.

The verifier side of the package: assembles the expansion coefficients and
Q-curvature routes on torus metrics, checks the master relations and the
degree/vanishing statements by exact-parameter sampling, and runs the
critical four-dimensional identity suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .conformal import (
    CurvatureBundle,
    curvature,
    grad_pair_J,
    inner,
    laplacian,
    oracle_curvature,
    schouten_div_grad,
)
from .families import PoleError, build_P, build_T, pair_derivative, pair_value
from .grid import TorusChart
from .lambda_algebra import LAMBDA, binomial, interpolate, pochhammer
from .presets import preset_phi
from .reports import CheckReport, exact_report, tolerance_report

DEFAULT_LAMBDAS = (Fraction(0), Fraction(1, 3), Fraction(5), Fraction(-2), Fraction(7, 2))


class UnsupportedModeError(RuntimeError):
    """Requested quantity is only available in sphere or constant mode."""


def holo_coeffs(b: CurvatureBundle) -> dict:
    """Expansion coefficients by order index: {0: 1, 1: v2, 2: v4}."""
    ones = np.ones(b.chart.shape)
    return {0: ones, 1: -b.J / 2, 2: (b.J**2 - b.Psq) / 8}


def family_poly(b: CurvatureBundle, j: int, k: int):
    """T*_{2j}(lam)(v_{2k}) as a field_poly (num, den) pair in lam.

    The pair does not depend on lam, so it is built once per bundle and
    kept there; evaluate it with pair_value or pair_derivative.
    """
    pair = b.family_polys.get((j, k))
    if pair is None:
        pair = build_T(b.n, j).adjoint().field_poly(b, holo_coeffs(b)[k])
        b.family_polys[(j, k)] = pair
    return pair


def q4_direct(b: CurvatureBundle):
    return (b.n / 2) * b.J**2 - 2 * b.Psq - b.lapJ


def q4_holographic(b: CurvatureBundle):
    """Quarter identity route: Q4/4 = 4 v4 + 2 T2*(n/2 - 2)(v2)."""
    if b.n < 4:
        raise ValueError("holographic route needs background dimension >= 4")
    t2v2, _ = pair_value(family_poly(b, 1, 1), Fraction(b.n, 2) - 2)
    return 4 * (4 * holo_coeffs(b)[2] + 2 * t2v2)


def q6_holographic(model) -> Fraction:
    """Sixth-order Q from -Q6/2^6 = 6 v6 + 4 T2*(n/2-3)(v4) + 2 T4*(n/2-3)(v2).

    Only constant-curvature models carry a sixth coefficient here; numeric
    torus metrics raise UnsupportedModeError.
    """
    if isinstance(model, CurvatureBundle):
        raise UnsupportedModeError(
            "the sixth expansion coefficient is unavailable for torus metrics; "
            "use the sphere closed forms or the constant-curvature model")
    mu = Fraction(model.n, 2) - 3
    rhs = (6 * model.v(3) + 4 * model.t2_star_const(mu, model.v(2))
           + 2 * model.t4_star_const(mu, model.v(1)))
    return -64 * rhs


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

    def t2_star_const(self, mu: Fraction, c: Fraction) -> Fraction:
        return -mu * self.J * c / (2 * (self.n - 2 - 2 * mu))

    def t4_star_const(self, mu: Fraction, c: Fraction) -> Fraction:
        num = mu * ((mu + 2) * self.J**2 + (2 * mu - self.n + 2) * self.schouten_norm_sq())
        return c * num / (8 * (self.n - 2 - 2 * mu) * (self.n - 4 - 2 * mu))

    def q4(self) -> Fraction:
        return self.J**2 * (self.n**2 - 4) / (2 * self.n)


def _t_star_values(b: CurvatureBundle, N: int, mu: Fraction):
    """[T*_{2j}(mu)(v_{2N-2j}) for j = 0..N] with T0 the identity."""
    out = [holo_coeffs(b)[N]]
    for j in range(1, N + 1):
        val, _ = pair_value(family_poly(b, j, N - j), mu)
        out.append(val)
    return out


def master_check_numeric(b: CurvatureBundle, N: int, lam: Fraction,
                         tol: float = 1e-6) -> CheckReport:
    """Residual of lam N S0 + (lam - n + 2N) S1 where S0, S1 are the
    plain and index-weighted sums of T*_{2j}(lam) applied to the
    complementary expansion coefficients."""
    t0 = time.perf_counter()
    lam = Fraction(lam)
    terms = _t_star_values(b, N, lam)
    s0 = sum(terms)
    s1 = sum(j * t for j, t in enumerate(terms))
    residual_field = N * float(lam) * s0 + float(lam - b.n + 2 * N) * s1
    scale = max([np.max(np.abs(t)) for t in terms] + [np.max(np.abs(s0)), np.max(np.abs(s1))])
    return tolerance_report(f"master3-n{b.n}-N{N}-l{lam}", "master-3",
                            {"n": b.n, "N": N, "lambda": lam},
                            np.max(np.abs(residual_field)), tol, scale,
                            seconds=time.perf_counter() - t0)


def example_2_3_checks(b: CurvatureBundle, lam: Fraction, tol: float = 1e-6):
    """The two displayed fourth-order identities with explicit right sides."""
    lam = Fraction(lam)
    n = b.n
    f = Fraction(n, 2)
    d_val = (n - 2 - 2 * lam) * (n - 4 - 2 * lam)
    if d_val == 0:
        raise PoleError(lam, float("inf"))
    g_field = (float(lam) * (2 * b.Psq - b.J**2)
               + (n - 2) * (b.J**2 - b.Psq) - b.lapJ)
    v = holo_coeffs(b)
    t4, _ = pair_value(family_poly(b, 2, 0), lam)
    t2, _ = pair_value(family_poly(b, 1, 1), lam)
    reports = []
    t0 = time.perf_counter()
    lhs_i = 8 * t4 + 6 * t2 + 4 * v[2]
    rhs_i = float(f - 2) * g_field / float(d_val)
    scale = max(np.max(np.abs(lhs_i)), np.max(np.abs(rhs_i)), np.max(np.abs(g_field)))
    reports.append(tolerance_report(f"ex23-i-n{n}-l{lam}", "example-2.3-i",
                                    {"n": n, "lambda": lam},
                                    np.max(np.abs(lhs_i - rhs_i)), tol, scale,
                                    seconds=time.perf_counter() - t0))
    t0 = time.perf_counter()
    lhs_ii = t4 + t2 + v[2]
    rhs_ii = -float(lam - n + 4) * g_field / float(8 * d_val)
    scale = max(np.max(np.abs(lhs_ii)), np.max(np.abs(rhs_ii)), np.max(np.abs(g_field)))
    reports.append(tolerance_report(f"ex23-ii-n{n}-l{lam}", "example-2.3-ii",
                                    {"n": n, "lambda": lam},
                                    np.max(np.abs(lhs_ii - rhs_ii)), tol, scale,
                                    seconds=time.perf_counter() - t0))
    return reports


_ABSCISSA_POOL = (Fraction(-1), Fraction(2), Fraction(3), Fraction(-3), Fraction(4), Fraction(5))


def _abscissae(n: int, N: int, count: int):
    f = Fraction(n, 2)
    shift = n - 2 * N
    excluded = {f - 1 - j - shift for j in range(N)}
    picked = [a for a in _ABSCISSA_POOL if a not in excluded][:count]
    if len(picked) < count:
        raise ValueError("not enough pole-free abscissae in the pool")
    return picked


def _float_interpolate(xs, ys):
    """Exact Lagrange basis polynomials applied to float sample values."""
    coeffs = [0.0] * len(xs)
    for k, yk in enumerate(ys):
        basis = interpolate([(x, int(j == k)) for j, x in enumerate(xs)])
        for p, c in enumerate(basis.coeffs):
            coeffs[p] += float(c) * yk
    return coeffs


def _default_point(b: CurvatureBundle):
    return np.unravel_index(int(np.argmax(np.abs(q4_direct(b)))), b.chart.shape)


def qres_and_v_polys(b: CurvatureBundle, N: int, point=None):
    """Sampled residue and volume polynomials at one grid point.

    Returns (qres_coeffs, v_coeffs, meta): float coefficient lists of the
    degree-N interpolants of
      qres(lam) = -4^N N! (lam + n/2 - 2N + 1)_N S0(lam + n - 2N)
      v(lam)    = (lam + n/2 - 2N + 1)_N (2N S0 + 2 S1)(lam + n - 2N)
    """
    f = Fraction(b.n, 2)
    if point is None:
        point = _default_point(b)
    shift_poch = pochhammer(LAMBDA + f - 2 * N + 1, N)
    pref = -Fraction(4) ** N * factorial(N)
    xs = _abscissae(b.n, N, N + 1)
    q_vals, v_vals, scale = [], [], 1.0
    for lam in xs:
        mu = lam + b.n - 2 * N
        terms = _t_star_values(b, N, mu)
        s0 = sum(terms)
        s1 = sum(j * t for j, t in enumerate(terms))
        q_field = float(pref * shift_poch(lam)) * s0
        v_field = float(shift_poch(lam)) * (2 * N * s0 + 2 * s1)
        scale = max([scale, np.max(np.abs(q_field)), np.max(np.abs(v_field))]
                    + [np.max(np.abs(t)) for t in terms])
        q_vals.append(float(q_field[point]))
        v_vals.append(float(v_field[point]))
    meta = {"point": tuple(int(i) for i in point), "abscissae": xs, "scale": scale}
    return _float_interpolate(xs, q_vals), _float_interpolate(xs, v_vals), meta


def poly_checks(b: CurvatureBundle, N: int, tol: float = 1e-6, point=None):
    """Vanishing, degree, and proportionality checks on the sampled polynomials."""
    t0 = time.perf_counter()
    qc, vc, meta = qres_and_v_polys(b, N, point=point)
    scale = meta["scale"]
    n = b.n
    f = Fraction(n, 2)
    reports = [tolerance_report(f"qres-van-n{n}-N{N}", "Q-van", {"n": n, "N": N},
                                abs(qc[0]), tol, scale,
                                details={"coeffs": qc}, seconds=time.perf_counter() - t0)]
    if N == 1:
        j_at_point = float(b.J[meta["point"]])
        reports.append(tolerance_report(f"qres-slope-n{n}", "Q-pol", {"n": n, "N": 1},
                                        abs(qc[1] - j_at_point), tol, scale,
                                        details={"slope": qc[1], "J_at_point": j_at_point}))
    reports.append(tolerance_report(f"vdeg-n{n}-N{N}", "V-pol-deg", {"n": n, "N": N},
                                    abs(vc[N]), tol, scale, details={"coeffs": vc}))
    if n == 2 * N:
        reports.append(tolerance_report(f"vcrit-n{n}-N{N}", "V-van", {"n": n, "N": N},
                                        max(abs(c) for c in vc), tol, scale))
    # Proportionality between the two polynomials: 4^{N-1} (N-1)! lam V(lam)
    # equals (n/2 - N) qres(lam); compare coefficientwise.
    const = float(4 ** (N - 1) * factorial(N - 1))
    lhs = [0.0] + [const * c for c in vc]
    rhs = [float(f - N) * c for c in qc] + [0.0]
    resid = max(abs(a - c) for a, c in zip(lhs, rhs))
    reports.append(tolerance_report(f"master1-n{n}-N{N}", "master-1", {"n": n, "N": N},
                                    resid, tol, scale))
    return reports


def critical_suite_n4(b: CurvatureBundle, tol: float = 1e-5):
    """The five fourth-order critical-case identity checks."""
    if b.n != 4:
        raise ValueError("critical suite is defined at n = 4")
    reports = []
    v = holo_coeffs(b)
    zero = Fraction(0)
    q4 = q4_direct(b)
    p4 = build_P(4, 2)

    t0 = time.perf_counter()
    t2v2, _ = pair_value(family_poly(b, 1, 1), zero)
    lhs_a = 4 * v[2] + 2 * t2v2
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
    rhs_b = 32 * 2 * t2v2
    scale = max(np.max(np.abs(lhs_b)), np.max(np.abs(rhs_b)), np.max(np.abs(b.lapJ)))
    reports.append(tolerance_report("crit-b", "gj-derivative", {"n": 4},
                                    np.max(np.abs(lhs_b - rhs_b)), tol, scale,
                                    details={"closed_form": "both sides -8 lap J",
                                             "closed_form_residual":
                                                 float(np.max(np.abs(lhs_b + 8 * b.lapJ)))},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    res_plain = float(np.max(np.abs(p_dot - q4)))
    res_star = float(np.max(np.abs(p_dot_star - q4)))
    scale = max(np.max(np.abs(q4)), np.max(np.abs(p_dot)))
    matched = "unstarred" if res_plain <= res_star else "starred"
    reports.append(tolerance_report("crit-c", "property-2", {"n": 4},
                                    min(res_plain, res_star), tol, scale,
                                    details={"unstarred_residual": res_plain,
                                             "starred_residual": res_star,
                                             "matched": matched},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    qc, vc, meta = qres_and_v_polys(b, 2)
    point = meta["point"]
    q4_pt = float(q4[point])
    slope = qc[1]
    res_plus = abs(slope - q4_pt)
    res_minus = abs(slope + q4_pt)
    sign = "+" if res_plus <= res_minus else "-"
    reports.append(tolerance_report("crit-d", "qres-derivative", {"n": 4},
                                    min(res_plus, res_minus), tol, meta["scale"],
                                    details={"slope": slope, "q4_at_point": q4_pt,
                                             "matched_sign": sign},
                                    seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    t2_dot, _ = pair_derivative(family_poly(b, 1, 1), zero)
    t4_dot, _ = pair_derivative(family_poly(b, 2, 0), zero)
    lhs_e_field = 8 * (2 * t2_dot + 4 * t4_dot)
    lhs_e = float(lhs_e_field[point])
    rhs_e = -qc[2] - q4_pt
    scale = max(np.max(np.abs(lhs_e_field)), abs(rhs_e), meta["scale"])
    reports.append(tolerance_report("crit-e", "harmonic-sum", {"n": 4},
                                    abs(lhs_e - rhs_e), tol, scale,
                                    details={"harmonic_sum": "1 (single term)",
                                             "qres_coeffs": qc},
                                    seconds=time.perf_counter() - t0))
    return reports


def conformal_covariance_q4(chart: TorusChart, phi, omega,
                            tol: float = 1e-5) -> CheckReport:
    """Transformation law e^{4w} Q4(phi + w) = Q4(phi) + P4(phi)(w) at n = 4."""
    if chart.n != 4:
        raise ValueError("transformation law is checked at n = 4")
    t0 = time.perf_counter()
    base = curvature(chart, phi)
    shifted = curvature(chart, np.asarray(phi) + np.asarray(omega))
    lhs = np.exp(4 * np.asarray(omega)) * q4_direct(shifted)
    p4_omega, _ = build_P(4, 2).apply_at(base, omega, Fraction(0))
    rhs = q4_direct(base) + p4_omega
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), np.max(np.abs(p4_omega)))
    return tolerance_report("conformal-covariance-q4", "q-transform", {"n": 4},
                            np.max(np.abs(lhs - rhs)), tol, scale,
                            seconds=time.perf_counter() - t0)


def _phi_on(n: int, size: int, preset: str, seed: int, phi):
    """Chart of the given size and the conformal factor on it: the preset
    sampled there, or the supplied field, which must have that shape."""
    ch = TorusChart(n, (size, size))
    if phi is None:
        return ch, preset_phi(ch, preset, seed=seed)
    if phi.shape != ch.shape:
        raise ValueError(f"phi shape {phi.shape} does not match grid {ch.shape}")
    return ch, phi


def _curvature_reports(n: int, size: int, preset: str, seed: int, tol: float,
                       phi=None):
    reports = []
    t0 = time.perf_counter()
    ch, phi_fine = _phi_on(n, size, preset, seed, phi)
    b = curvature(ch, phi_fine)
    oracle = oracle_curvature(ch, b.phi)
    gap = max(np.max(np.abs(b.J - oracle["J"])), np.max(np.abs(b.Psq - oracle["Psq"])),
              max(np.max(np.abs(b.P[i][k] - oracle["P_active"][i][k]))
                  for i in range(2) for k in range(2)))
    scale = max(np.max(np.abs(oracle["J"])), np.max(np.abs(oracle["Psq"])))
    reports.append(tolerance_report(f"curv-oracle-n{n}", "schouten-formula",
                                    {"n": n, "grid": size, "preset": preset},
                                    gap, tol, scale, seconds=time.perf_counter() - t0))

    t0 = time.perf_counter()
    coarse_phi = None if phi is None else phi[::2, ::2]
    gaps = []
    for s in (size // 2, size):
        bs = b if s == size else curvature(*_phi_on(n, s, preset, seed, coarse_phi))
        om = oracle_curvature(bs.chart, bs.phi, route="metric")
        gaps.append(float(np.max(np.abs(bs.J - om["J"]))))
    ratio = gaps[0] / max(gaps[1], 1e-300)
    passed = ratio >= 8.0 or max(gaps) <= 1e-11
    reports.append(CheckReport(
        id=f"curv-refine-n{n}", equation="schouten-formula",
        params={"n": n, "grids": [size // 2, size], "preset": preset},
        passed=passed, residual=gaps[1], tol=max(gaps[0] / 8.0, 1e-11),
        scale=1.0, details={"coarse_gap": gaps[0], "ratio": ratio},
        seconds=time.perf_counter() - t0))
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
    cases = {
        "lap": lambda: inner(b, laplacian(b, f), g) - inner(b, f, laplacian(b, g)),
        "pdiv": lambda: (inner(b, schouten_div_grad(b, f), g)
                         - inner(b, f, schouten_div_grad(b, g))),
        "gj": lambda: (inner(b, grad_pair_J(b, f), g) + inner(b, f, grad_pair_J(b, g))
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


def numeric_suite(n_values=(4, 6), size: int = 64, preset: str = "trig1",
                  seed: int = 7, lambdas=DEFAULT_LAMBDAS, tol: float = 1e-6, phi=None):
    """Criterion checks for torus metrics: curvature routes, adjoints,
    Q-curvature duality, master relations, displayed identities, and the
    sampled polynomial invariants. phi, when given, replaces the preset at
    the full grid size (its 2:1 subsample feeds the refinement check)."""
    reports = []
    for n in n_values:
        if n < 4:
            raise ValueError("numeric suite needs n >= 4 for the fourth-order terms")
        b, curv_reports = _curvature_reports(n, size, preset, seed, tol, phi=phi)
        reports.extend(curv_reports)
        reports.extend(_adjoint_reports(b, seed))

        t0 = time.perf_counter()
        dual_gap = np.max(np.abs(q4_holographic(b) - q4_direct(b)))
        scale = np.max(np.abs(q4_direct(b)))
        reports.append(tolerance_report(f"q4-dual-n{n}", "holo-Q4", {"n": n},
                                        dual_gap, tol, scale,
                                        seconds=time.perf_counter() - t0))

        t0 = time.perf_counter()
        forms_gap = np.max(np.abs(grad_pair_J(b, b.J, "commutator")
                                  - grad_pair_J(b, b.J, "direct")))
        # h-limited wiring guard, not a criterion check: the two forms agree
        # only to the stencil truncation (about 1e-4 at 32^2), while a wrong
        # sign or factor would show up at the size of |dJ|^2 itself.
        reports.append(tolerance_report(f"gradj-forms-n{n}", "pairing-forms", {"n": n},
                                        forms_gap, 1e-3, np.max(np.abs(b.J)),
                                        seconds=time.perf_counter() - t0))

        f = Fraction(n, 2)
        for N in (1, 2):
            hard_poles = {f - 1 - j for j in range(N)}
            for lam in lambdas:
                lam = Fraction(lam)
                if lam in hard_poles and not (n == 4 and N == 2 and lam == 0):
                    continue
                reports.append(master_check_numeric(b, N, lam, tol=tol))
            reports.extend(poly_checks(b, N, tol=tol))
        for lam in lambdas:
            lam = Fraction(lam)
            if (n - 2 - 2 * lam) * (n - 4 - 2 * lam) == 0:
                continue
            reports.extend(example_2_3_checks(b, lam, tol=tol))
    return reports


def critical_n4_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                      tol: float = 1e-5, phi=None):
    """Critical-case checks at n = 4 plus the vanishing of the sampled
    volume polynomial and the transformation law."""
    b = curvature(*_phi_on(4, size, preset, seed, phi))
    reports = critical_suite_n4(b, tol=tol)
    reports.extend(poly_checks(b, 2, tol=tol))
    # Unlike the identity checks above, the transformation-law residual is
    # limited by the h^4 Leibniz error of the stencils, so for preset input
    # it runs on the doubled grid to clear the same tolerance. A supplied
    # field cannot be upsampled and is checked at its own resolution.
    ch, base = _phi_on(4, size if phi is not None else 2 * size, preset, seed, phi)
    omega = preset_phi(ch, "trig3", seed=seed + 5)
    reports.append(conformal_covariance_q4(ch, base, omega, tol=tol))
    return reports


def conformal_suite(size: int = 64, preset: str = "trig1", seed: int = 7,
                    tol: float = 1e-5, phi=None):
    """Transformation-law checks at n = 4 for a zero, a constant, and a
    generic band-limited shift. Preset input runs on the doubled grid for
    the same reason as in critical_n4_suite."""
    ch, base = _phi_on(4, size if phi is not None else 2 * size, preset, seed, phi)
    shifts = [
        ("zero", ch.zeros()),
        ("const", 0.3 * np.ones(ch.shape)),
        ("generic", preset_phi(ch, "trig3", seed=seed + 5)),
    ]
    reports = []
    for name, omega in shifts:
        rep = conformal_covariance_q4(ch, base, omega, tol=tol)
        rep.id = f"conformal-{name}"
        reports.append(rep)
    return reports


def einstein_checks(n: int, J: Fraction):
    """Exact consistency checks for the constant-curvature model."""
    from .sphere import SphereContext, sphere_Q

    model = EinsteinModel(n, J)
    params = {"n": n, "J": model.J, "mode": "constant-curvature"}
    # (id, equation, lhs, rhs, extra details) of each lhs == rhs identity
    identities = [
        ("einstein-v2", "v2", model.v(1), -model.J / 2, {}),
        ("einstein-v4", "v4", model.v(2), (model.J**2 - model.schouten_norm_sq()) / 8, {}),
        ("einstein-q4", "holo-Q4",
         4 * (4 * model.v(2) + 2 * model.t2_star_const(Fraction(n, 2) - 2, model.v(1))),
         model.q4(), {}),
    ]
    reports = []
    if n >= 6:
        q6 = q6_holographic(model)
        details = {}
        if model.J == Fraction(n, 2):
            sphere_value = sphere_Q(SphereContext(n), 3)
            details["sphere_value"] = sphere_value
            identities.append(("einstein-q6-sphere", "holo-Q6", q6, sphere_value, {}))
        reports.append(exact_report("einstein-q6", "holo-Q6", params, True,
                                    dict(details, value=q6)))

    star_consts = {1: model.t2_star_const, 2: model.t4_star_const}
    for N in (1, 2):
        hard_poles = {Fraction(n, 2) - 1 - j for j in range(N)}
        for lam in DEFAULT_LAMBDAS:
            lam = Fraction(lam)
            if lam in hard_poles:
                continue
            terms = [model.v(N)]
            terms += [star_consts[j](lam, model.v(N - j)) for j in range(1, N + 1)]
            s0 = sum(terms)
            s1 = sum(j * t for j, t in enumerate(terms))
            residual = N * lam * s0 + (lam - n + 2 * N) * s1
            identities.append((f"einstein-master3-N{N}-l{lam}", "master-3",
                               residual, Fraction(0), {"lambda": str(lam)}))
    extension = dict(params, extension=True)
    return reports + [exact_report(check_id, equation, extension, lhs == rhs,
                                   dict(extra, lhs=lhs, rhs=rhs))
                      for check_id, equation, lhs, rhs, extra in identities]
