"""Curvature of conformally flat metrics g = e^{2 phi} (flat) on the torus.

The conformal factor depends on two coordinates; the remaining n - 2 flat
directions ride along. curvature() evaluates the closed-form Schouten data;
oracle_curvature() recomputes it densely from Christoffel symbols of the
metric components, as an unoptimised reference that tests compare against.
Differential operators are written in conservative form so their weighted
adjoints are exact at the matrix level, not just to truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .grid import TorusChart, cell_blocks, d1, hessian


@dataclass
class CurvatureBundle:
    """Precomputed curvature fields and conformal weights for one metric."""

    chart: TorusChart
    phi: np.ndarray
    n: int = field(init=False)
    en2: np.ndarray = field(init=False)
    emn: np.ndarray = field(init=False)
    J: np.ndarray = field(init=False)
    # P[1][0] is P[0][1], one array
    P: list = field(init=False)
    p_inactive: np.ndarray = field(init=False)
    Psq: np.ndarray = field(init=False)
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
        em2 = np.exp(-2.0 * phi)
        self.en2 = np.exp((n - 2.0) * phi)
        self.emn = np.exp(-float(n) * phi)

        # each temporary is dropped after its last read
        dp = gradient(ch, phi)
        gradsq = dp[0] * dp[0] + dp[1] * dp[1]
        hess = hessian(ch, dp)
        lap0 = hess[0][0] + hess[1][1]
        self.J = -em2 * (lap0 + 0.5 * (n - 2.0) * gradsq)
        del lap0

        # hess[1][0] is hess[0][1], so P is symmetric bit for bit
        p01 = -hess[0][1] + dp[0] * dp[1]
        self.P = [[-hess[i][k] + dp[i] * dp[k] - 0.5 * gradsq if i == k else p01
                   for k in range(2)] for i in range(2)]
        del dp, hess, p01
        self.p_inactive = -0.5 * gradsq
        del gradsq
        frob = sum(self.P[i][k] ** 2 for i in range(2) for k in range(2))
        self.Psq = em2 ** 2 * (frob + (n - 2.0) * self.p_inactive ** 2)
        del frob, em2

        self.lapJ = laplacian(self, self.J)

    @property
    def em2(self):
        """e^{-2 phi}, built per read and never kept: past the bundle, only
        the D_k with k >= 1 and the v_{2k} with k >= 3 read it."""
        return np.exp(-2.0 * self.phi)


def curvature(chart: TorusChart, phi) -> CurvatureBundle:
    return CurvatureBundle(chart, phi)


def gradient(chart: TorusChart, f):
    """The pair (d1(f, 0), d1(f, 1)). Operators that differentiate f accept
    it as grad, so a field read by several of them is differentiated once."""
    return d1(chart, f, 0), d1(chart, f, 1)


def laplacian(b: CurvatureBundle, f, grad=None):
    """Laplace-Beltrami operator in conservative (divergence) form. grad,
    when given, is gradient(b.chart, f) already built; otherwise each partial
    of f is built for its flux, weighted in place and dropped with it."""
    ch = b.chart

    def flux(axis):  # e^{(n-2) phi} times the partial along axis
        if grad:
            return b.en2 * grad[axis]
        partial = d1(ch, f, axis)
        return np.multiply(b.en2, partial, out=partial)

    out = d1(ch, flux(0), 0)
    d1(ch, flux(1), 1, out)
    out *= b.emn
    return out


def divergence_form(b: CurvatureBundle, B, f, grad=None, weight=None):
    """e^{-n phi} d_a(B^{ab} d_b f) for a symmetric field B = (B00, B01, B11),
    self-adjoint in the weighted inner product since d1 is antisymmetric.
    With a weight field w, B is (w B00, w B01, w B11), whose entries are
    formed a block of cells at a time and never whole. grad, when given, is
    gradient(b.chart, f) already built."""
    ch = b.chart
    g0, g1 = grad or gradient(ch, f)
    B00, B01, B11 = B
    out = d1(ch, _contract(B00, g0, B01, g1, weight), 0)
    d1(ch, _contract(B01, g0, B11, g1, weight), 1, out)
    out *= b.emn
    return out


def _contract(a, x, c, y, weight=None):
    """a x + c y, or (w a) x + (w c) y for a weight field w, formed a block of
    cells at a time: a block's first product in the output, its second in
    one scratch block."""
    shape = np.shape(x)
    a, x, c, y = (np.ravel(v) for v in (a, x, c, y))
    w = None if weight is None else np.ravel(weight)
    out, blocks = np.empty(x.size), cell_blocks(x.size)
    scratch = np.empty(blocks[0].stop if blocks else 0)  # the first block is the largest
    for cells in blocks:
        o, t = out[cells], scratch[:cells.stop - cells.start]
        if w is None:
            np.multiply(a[cells], x[cells], out=o)
            np.multiply(c[cells], y[cells], out=t)
        else:
            np.multiply(w[cells], a[cells], out=o)
            o *= x[cells]
            np.multiply(w[cells], c[cells], out=t)
            t *= y[cells]
        o += t
    return out.reshape(shape)


def holo_coeffs(b: CurvatureBundle, k: int):
    """v_{2k}, the r^{2k} coefficient of det(1 - r^2 A/2), A = g^{-1} P:
    -J/2 and (J^2 - |P|^2)/8 for k = 1, 2, and (-1/2)^k sigma_k(A) above,
    from A's active 2x2 block and its inactive eigenvalue (multiplicity n - 2)."""
    if k == 0:  # read-only, and no field is allocated
        return np.broadcast_to(1.0, b.chart.shape)
    if k == 1:
        return -b.J / 2
    if k == 2:
        return (b.J**2 - b.Psq) / 8
    P, m, em2 = b.P, b.n - 2, b.em2
    a = em2 * b.p_inactive
    trace = em2 * (P[0][0] + P[1][1])
    det = em2**2 * (P[0][0] * P[1][1] - P[0][1] ** 2)
    sigma = (comb(m, k) * a**k + comb(m, k - 1) * trace * a ** (k - 1)
             + comb(m, k - 2) * det * a ** (k - 2))
    return (-0.5) ** k * sigma


def _flux(b: CurvatureBundle, k: int):
    """(B00, B01, B11) of B_k = e^{(n-2) phi} sum_{m<=k} (m+1) 2^{-m} v_{2k-2m} Ahat^m,
    Ahat = e^{-2 phi} P on the active block: the r^{2k} coefficient of
    sqrt(det g_r) g_r^{-1}, g_r = g (1 - r^2 A/2)^2. Built per use, never kept."""
    em2 = b.em2
    hat = (em2 * b.P[0][0], em2 * b.P[0][1], em2 * b.P[1][1])
    power, B = (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)
    for m in range(k + 1):
        if m:  # Ahat^m = Ahat^{m-1} Ahat, built symmetric
            (p00, p01, p11), (h00, h01, h11) = power, hat
            power = (p00 * h00 + p01 * h01, p00 * h01 + p01 * h11, p01 * h01 + p11 * h11)
        w = (m + 1) / 2**m * (holo_coeffs(b, k - m) if m < k else 1.0)
        B = tuple(x + w * p for x, p in zip(B, power))
    return tuple(b.en2 * x for x in B)


def volume_weight(b: CurvatureBundle):
    """e^{n phi} times the cell volume, the weight of inner. Built per use,
    never kept."""
    return np.exp(float(b.n) * b.phi) * b.chart.cell_volume()


def schouten_weight(b: CurvatureBundle):
    """The weight w = -e^{(n-4) phi} of the divergence form's Schouten case,
    B = w P: divergence_form(b, (P00, P01, P11), f, weight=w). Built per
    use, never kept."""
    w = np.exp((b.n - 4.0) * b.phi)
    return np.negative(w, out=w)


def inner(W, f, g, out=None) -> float:
    """sum f g W, for the weight W = volume_weight(b): the metric's L^2
    product of f and g. out, when given, is f or g, a field the caller
    reads no more, and the products are formed in it."""
    fg = np.multiply(f, g, out=out)
    fg *= W
    return float(np.sum(fg))


def apply_primitive(b: CurvatureBundle, name: str, f):
    """Apply one self-adjoint primitive to a field: 'v<2k>' multiplies by
    v_{2k}, 'D0' is the Laplacian, 'D<k>' the divergence form of B_k."""
    kind, k = name[0], int(name[1:])
    if kind == "v":
        return holo_coeffs(b, k // 2) * f
    if kind == "D":
        return laplacian(b, f) if k == 0 else divergence_form(b, _flux(b, k), f)
    raise ValueError(f"unknown primitive {name!r}")


def oracle_curvature(chart: TorusChart, phi):
    """Recompute Schouten data from Christoffel symbols of g_ij = e^{2 phi} d_ij.

    A dense, unoptimised reference for tests: every Christoffel symbol is an
    array, zero ones included, and the Ricci sums are straight loops over the
    full n-dimensional chart (Fefferman-Graham, The Ambient Metric). Fields are
    constant along the inactive axes, so their partials vanish. Returns a dict
    with scal, J, Psq and the active 2x2 block of Schouten components.

    The Christoffel assembly is fed with the derivatives of phi (the half log
    of the metric components), so the comparison against curvature()
    isolates the tensor-algebra reduction from the derivative's truncation.
    """
    phi = np.asarray(phi, dtype=float)
    n = chart.n
    E = np.exp(2.0 * phi)
    Einv = 1.0 / E
    zero = chart.zeros()
    lam = list(gradient(chart, phi)) + [zero] * (n - 2)

    def gamma(k, i, j):
        out = zero
        if k == j:
            out = out + lam[i]
        if k == i:
            out = out + lam[j]
        if i == j:
            out = out - lam[k]
        return out

    G = [[[gamma(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)]
    trace = [sum(G[l][l][k] for l in range(n)) for k in range(n)]

    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            term = zero
            for l in range(2):
                term = term + d1(chart, G[l][j][k], l)
            if j < 2:
                term = term - d1(chart, trace[k], j)
            for m in range(n):
                term = term + trace[m] * G[m][j][k]
                for l in range(n):
                    term = term - G[l][j][m] * G[m][l][k]
            ric[j][k] = ric[k][j] = term

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
