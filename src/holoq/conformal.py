"""Curvature of conformally flat metrics g = e^{2 phi} (flat) on the torus.

The conformal factor depends on two coordinates; the remaining n - 2 flat
directions ride along. curvature() evaluates the closed-form Schouten data,
oracle_curvature() recomputes it from Christoffel symbols of the metric
components, and the numeric suite compares the two. Differential operators are
written in conservative form so their weighted adjoints are exact at the
matrix level, not just to truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TorusChart, d1, hessian


@dataclass
class CurvatureBundle:
    """Precomputed curvature fields and conformal weights for one metric."""

    chart: TorusChart
    phi: np.ndarray
    n: int = field(init=False)
    e2: np.ndarray = field(init=False)
    em2: np.ndarray = field(init=False)
    en2: np.ndarray = field(init=False)
    en4w: np.ndarray = field(init=False)
    emn: np.ndarray = field(init=False)
    enphi: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)
    dphi: tuple = field(init=False)
    gradsq: np.ndarray = field(init=False)
    J: np.ndarray = field(init=False)
    P: list = field(init=False)
    p_inactive: np.ndarray = field(init=False)
    Psq: np.ndarray = field(init=False)
    dJ: tuple = field(init=False)
    lapJ: np.ndarray = field(init=False)
    # (j, k) -> field_poly pair of T*_{2j}(v_{2k}), filled by
    # holographic.family_poly on first use.
    family_polys: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        ch, phi, n = self.chart, np.asarray(self.phi, dtype=float), self.chart.n
        if phi.shape != ch.shape:
            raise ValueError(f"phi shape {phi.shape} does not match chart {ch.shape}")
        self.phi = phi
        self.n = n
        self.e2 = np.exp(2.0 * phi)
        self.em2 = np.exp(-2.0 * phi)
        self.en2 = np.exp((n - 2.0) * phi)
        self.en4w = np.exp((n - 4.0) * phi)
        self.emn = np.exp(-float(n) * phi)
        self.enphi = np.exp(float(n) * phi)
        self.W = self.enphi * ch.cell_volume()

        g0, g1 = d1(ch, phi, 0), d1(ch, phi, 1)
        self.dphi = (g0, g1)
        self.gradsq = g0 * g0 + g1 * g1
        hess = hessian(ch, phi)
        lap0 = hess[0][0] + hess[1][1]
        self.J = -self.em2 * (lap0 + 0.5 * (n - 2.0) * self.gradsq)

        dp = [g0, g1]
        self.P = [[-hess[i][k] + dp[i] * dp[k] - (0.5 * self.gradsq if i == k else 0.0)
                   for k in range(2)] for i in range(2)]
        self.p_inactive = -0.5 * self.gradsq
        frob = sum(self.P[i][k] ** 2 for i in range(2) for k in range(2))
        self.Psq = self.em2 ** 2 * (frob + (n - 2.0) * self.p_inactive ** 2)

        self.dJ = (d1(ch, self.J, 0), d1(ch, self.J, 1))
        self.lapJ = laplacian(self, self.J)


def curvature(chart: TorusChart, phi) -> CurvatureBundle:
    return CurvatureBundle(chart, phi)


def laplacian(b: CurvatureBundle, f):
    """Laplace-Beltrami operator in conservative (divergence) form."""
    ch = b.chart
    out = d1(ch, b.en2 * d1(ch, f, 0), 0) + d1(ch, b.en2 * d1(ch, f, 1), 1)
    return b.emn * out


def schouten_div_grad(b: CurvatureBundle, f):
    """delta(P d f): minus the divergence of the Schouten-contracted gradient."""
    ch = b.chart
    out = 0.0
    for i in range(2):
        flux = b.en4w * (b.P[i][0] * d1(ch, f, 0) + b.P[i][1] * d1(ch, f, 1))
        out = out + d1(ch, flux, i)
    return -b.emn * out


def grad_pair_J(b: CurvatureBundle, f, form: str = "commutator"):
    """The pairing (dJ, df) in the metric.

    The commutator form writes it through the Laplacian so that its weighted
    adjoint has an exact closed form on the grid; the direct form contracts
    gradients with the inverse metric and is used as a cross-check.
    """
    if form == "commutator":
        return 0.5 * (laplacian(b, b.J * f) - b.J * laplacian(b, f) - f * b.lapJ)
    if form == "direct":
        ch = b.chart
        return b.em2 * (b.dJ[0] * d1(ch, f, 0) + b.dJ[1] * d1(ch, f, 1))
    raise ValueError(f"unknown form {form!r}")


def inner(b: CurvatureBundle, f, g) -> float:
    return float(np.sum(f * g * b.W))


def apply_primitive(b: CurvatureBundle, name: str, f):
    """Apply one named building-block operator to a field."""
    if name == "id":
        return f
    if name == "lap":
        return laplacian(b, f)
    if name == "mJ":
        return b.J * f
    if name == "mPsq":
        return b.Psq * f
    if name == "mLapJ":
        return b.lapJ * f
    if name == "pdiv":
        return schouten_div_grad(b, f)
    if name == "gJ":
        return grad_pair_J(b, f)
    raise ValueError(f"unknown primitive {name!r}")


def _add(acc, x):
    """acc + x, where None stands for a field that is zero by structure."""
    if x is None:
        return acc
    return x if acc is None else acc + x


def _sub(acc, x):
    if x is None:
        return acc
    return -x if acc is None else acc - x


def _mul(x, y):
    return None if x is None or y is None else x * y


def _total(fields):
    acc = None
    for x in fields:
        acc = _add(acc, x)
    return acc


def oracle_curvature(chart: TorusChart, phi, route: str = "chain"):
    """Recompute Schouten data from Christoffel symbols of g_ij = e^{2 phi} d_ij.

    Works index by index in the full n-dimensional chart; fields are constant
    along the inactive axes so their partials vanish. Those vanishing partials,
    and every Christoffel symbol and product built only from them, are held as
    None and skipped, which leaves the surviving sums in their index order.
    Returns a dict with scal, J, Psq and the active 2x2 block of Schouten
    components.

    The "chain" route feeds the Christoffel assembly with derivatives of phi
    (the half log of the metric components), so the comparison against
    curvature() isolates the tensor-algebra reduction from stencil truncation.
    The "metric" route differentiates the raw components e^{2 phi} instead;
    its gap against curvature() is genuinely resolution-limited and is what
    the refinement checks measure.
    """
    phi = np.asarray(phi, dtype=float)
    n = chart.n
    E = np.exp(2.0 * phi)
    Einv = 1.0 / E
    if route == "chain":
        lam = [d1(chart, phi, 0), d1(chart, phi, 1)] + [None] * (n - 2)
    elif route == "metric":
        lam = [0.5 * Einv * d1(chart, E, 0), 0.5 * Einv * d1(chart, E, 1)] + [None] * (n - 2)
    else:
        raise ValueError(f"unknown oracle route {route!r}")

    def gamma(k, i, j):
        out = None
        if k == j:
            out = _add(out, lam[i])
        if k == i:
            out = _add(out, lam[j])
        if i == j:
            out = _sub(out, lam[k])
        return out

    def deriv(f, axis):
        return None if f is None else d1(chart, f, axis)

    G = [[[gamma(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)]
    trace = [_total(G[l][l][k] for l in range(n)) for k in range(n)]

    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            term = None
            for l in range(2):
                term = _add(term, deriv(G[l][j][k], l))
            if j < 2:
                term = _sub(term, deriv(trace[k], j))
            for m in range(n):
                term = _add(term, _mul(trace[m], G[m][j][k]))
                for l in range(n):
                    term = _sub(term, _mul(G[l][j][m], G[m][l][k]))
            ric[j][k] = ric[k][j] = term

    scal = Einv * _total(ric[j][j] for j in range(n))
    J = scal / (2.0 * (n - 1.0))

    def schouten(j, k):
        p = _sub(ric[j][k], J * E if j == k else None)
        return None if p is None else p / (n - 2.0)

    P = [[schouten(j, k) for k in range(n)] for j in range(n)]
    Psq = Einv ** 2 * _total(p ** 2 for row in P for p in row if p is not None)
    return {
        "scal": scal,
        "J": J,
        "Psq": Psq,
        "P_active": [[P[i][k] for k in range(2)] for i in range(2)],
    }
