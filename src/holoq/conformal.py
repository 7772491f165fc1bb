"""Curvature of conformally flat metrics g = e^{2 phi} (flat) on the torus.

The conformal factor depends on two coordinates; the remaining n - 2 flat
directions ride along. curvature() evaluates the closed-form Schouten data,
oracle_curvature() recomputes it from Christoffel symbols of the metric
components, and the numeric suite compares the two. Differential operators are
written in conservative form so their weighted adjoints are exact at the
matrix level, not just to truncation order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .grid import TorusChart, d1, hessian


@dataclass
class CurvatureBundle:
    """Precomputed curvature fields and conformal weights for one metric."""

    chart: TorusChart
    phi: np.ndarray
    n: int = field(init=False)
    em2: np.ndarray = field(init=False)
    en2: np.ndarray = field(init=False)
    en4w: np.ndarray = field(init=False)
    emn: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)
    J: np.ndarray = field(init=False)
    # P[1][0] is P[0][1], one array
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
        self.em2 = np.exp(-2.0 * phi)
        self.en2 = np.exp((n - 2.0) * phi)
        self.en4w = np.exp((n - 4.0) * phi)
        self.emn = np.exp(-float(n) * phi)
        self.W = np.exp(float(n) * phi) * ch.cell_volume()

        dp = gradient(ch, phi)
        gradsq = dp[0] * dp[0] + dp[1] * dp[1]
        hess = hessian(ch, dp)
        lap0 = hess[0][0] + hess[1][1]
        self.J = -self.em2 * (lap0 + 0.5 * (n - 2.0) * gradsq)

        # hess[1][0] is hess[0][1], so P is symmetric bit for bit
        p01 = -hess[0][1] + dp[0] * dp[1]
        self.P = [[-hess[i][k] + dp[i] * dp[k] - 0.5 * gradsq if i == k else p01
                   for k in range(2)] for i in range(2)]
        self.p_inactive = -0.5 * gradsq
        frob = sum(self.P[i][k] ** 2 for i in range(2) for k in range(2))
        self.Psq = self.em2 ** 2 * (frob + (n - 2.0) * self.p_inactive ** 2)

        self.dJ = gradient(ch, self.J)
        self.lapJ = laplacian(self, self.J, self.dJ)


def curvature(chart: TorusChart, phi) -> CurvatureBundle:
    return CurvatureBundle(chart, phi)


def gradient(chart: TorusChart, f):
    """The pair (d1(f, 0), d1(f, 1)). Operators that differentiate f accept
    it as grad, so a field read by several of them is differentiated once."""
    return d1(chart, f, 0), d1(chart, f, 1)


def laplacian(b: CurvatureBundle, f, grad=None):
    """Laplace-Beltrami operator in conservative (divergence) form. grad,
    when given, is gradient(b.chart, f) already built."""
    ch = b.chart
    g0, g1 = grad or gradient(ch, f)
    out = d1(ch, b.en2 * g0, 0) + d1(ch, b.en2 * g1, 1)
    return b.emn * out


def divergence_form(b: CurvatureBundle, B, f, grad=None):
    """e^{-n phi} d_a(B^{ab} d_b f) for a symmetric field B = (B00, B01, B11),
    self-adjoint in the weighted inner product since d1 is antisymmetric.
    grad, when given, is gradient(b.chart, f) already built."""
    ch = b.chart
    g0, g1 = grad or gradient(ch, f)
    B00, B01, B11 = B
    return b.emn * (d1(ch, B00 * g0 + B01 * g1, 0) + d1(ch, B01 * g0 + B11 * g1, 1))


def holo_coeffs(b: CurvatureBundle, k: int):
    """v_{2k}, the r^{2k} coefficient of det(1 - r^2 A/2), A = g^{-1} P:
    -J/2 and (J^2 - |P|^2)/8 for k = 1, 2, and (-1/2)^k sigma_k(A) above,
    from A's active 2x2 block and its inactive eigenvalue (multiplicity n - 2)."""
    if k == 0:
        return np.ones(b.chart.shape)
    if k == 1:
        return -b.J / 2
    if k == 2:
        return (b.J**2 - b.Psq) / 8
    P, m = b.P, b.n - 2
    a = b.em2 * b.p_inactive
    trace = b.em2 * (P[0][0] + P[1][1])
    det = b.em2**2 * (P[0][0] * P[1][1] - P[0][1] ** 2)
    sigma = (comb(m, k) * a**k + comb(m, k - 1) * trace * a ** (k - 1)
             + comb(m, k - 2) * det * a ** (k - 2))
    return (-0.5) ** k * sigma


def _flux(b: CurvatureBundle, k: int):
    """(B00, B01, B11) of B_k = e^{(n-2) phi} sum_{m<=k} (m+1) 2^{-m} v_{2k-2m} Ahat^m,
    Ahat = e^{-2 phi} P on the active block: the r^{2k} coefficient of
    sqrt(det g_r) g_r^{-1}, g_r = g (1 - r^2 A/2)^2. Built per use, never kept."""
    hat = (b.em2 * b.P[0][0], b.em2 * b.P[0][1], b.em2 * b.P[1][1])
    power, B = (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)
    for m in range(k + 1):
        if m:  # Ahat^m = Ahat^{m-1} Ahat, built symmetric
            (p00, p01, p11), (h00, h01, h11) = power, hat
            power = (p00 * h00 + p01 * h01, p00 * h01 + p01 * h11, p01 * h01 + p11 * h11)
        w = (m + 1) / 2**m * (holo_coeffs(b, k - m) if m < k else 1.0)
        B = tuple(x + w * p for x, p in zip(B, power))
    return tuple(b.en2 * x for x in B)


def grad_pair_J(b: CurvatureBundle, f, form: str = "commutator", lap=None, grad=None):
    """The pairing (dJ, df) in the metric.

    The commutator form writes it through the Laplacian so that its weighted
    adjoint has an exact closed form on the grid; the direct form contracts
    gradients with the inverse metric and is used as a cross-check. lap and
    grad, when given, are laplacian(b, f) and gradient(b.chart, f) already
    built; the commutator form reads lap, the direct form grad.
    """
    if form == "commutator":
        lap = laplacian(b, f) if lap is None else lap
        return 0.5 * (laplacian(b, b.J * f) - b.J * lap - f * b.lapJ)
    if form == "direct":
        g0, g1 = grad or gradient(b.chart, f)
        return b.em2 * (b.dJ[0] * g0 + b.dJ[1] * g1)
    raise ValueError(f"unknown form {form!r}")


def inner(b: CurvatureBundle, f, g) -> float:
    return float(np.sum(f * g * b.W))


def apply_primitive(b: CurvatureBundle, name: str, f):
    """Apply one self-adjoint primitive to a field: 'v<2k>' multiplies by
    v_{2k}, 'D0' is the Laplacian, 'D<k>' the divergence form of B_k."""
    kind, k = name[0], int(name[1:])
    if kind == "v":
        return holo_coeffs(b, k // 2) * f
    if kind == "D":
        return laplacian(b, f) if k == 0 else divergence_form(b, _flux(b, k), f)
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


def _signed_total(terms):
    """The (sign, field) terms added or subtracted in order, None fields
    skipped. The sum gets a buffer of its own at its first operation and is
    accumulated there, so no field passed in is ever written; acc += x is
    bitwise acc + x."""
    acc, owned = None, False
    for sign, x in terms:
        if x is None:
            continue
        if acc is None:
            acc, owned = (x, False) if sign > 0 else (-x, True)
        elif not owned:
            acc, owned = (acc + x if sign > 0 else acc - x), True
        elif sign > 0:
            acc += x
        else:
            acc -= x
    return acc


def _total(fields):
    """The fields summed in order, None skipped; no field is written."""
    return _signed_total((1, x) for x in fields)


def _index_class(idx):
    """Representative of an index tuple: its inactive axes (>= 2) relabelled
    2, 3, ... in order of first appearance."""
    names = {}
    return tuple(i if i < 2 else names.setdefault(i, 2 + len(names)) for i in idx)


def _by_class(build):
    """build(*idx), evaluated once per index class at its representative
    and shared by the class. The fields are constant along the isometric
    inactive axes, so each entry of a class is built from the same terms in
    the same order as its representative: the shared array is bitwise the
    one each entry would get."""
    built = {}

    def get(*idx):
        key = _index_class(idx)
        if key not in built:
            built[key] = build(*key)
        return built[key]
    return get


def _ricci(chart: TorusChart, lam):
    """Ricci tensor of g_ij = e^{2 phi} d_ij from lam = [d_0 phi, d_1 phi],
    as an n x n list sharing one array per index class, None where it
    vanishes by structure. The Christoffel symbols end with this call."""
    n = chart.n
    lam = list(lam) + [None] * (n - 2)
    # one array per pure negation, shared by every symbol that is only -lam[k]
    neg = [_sub(None, x) for x in lam]

    def gamma(k, i, j):
        if i == j != k:
            return neg[k]
        out = None
        if k == j:
            out = _add(out, lam[i])
        if k == i:
            out = _add(out, lam[j])
        if i == j:
            out = _sub(out, lam[k])
        return out

    christoffel = _by_class(gamma)
    G = [[[christoffel(k, i, j) for j in range(n)] for i in range(n)] for k in range(n)]
    trace = [_total(G[l][l][k] for l in range(n)) for k in range(n)]

    def derivative_terms(j, k):
        terms = [(1, G[l][j][k], l) for l in range(2)]
        if j < 2:
            terms.append((-1, trace[k], j))
        return [t for t in terms if t[1] is not None]

    # Each array is differentiated once per axis, and its derivative is kept
    # until its last use. G and trace hold every array for the whole call,
    # so ids stay unique.
    uses = Counter((id(f), axis) for key in {_index_class((j, k)) for j in range(n)
                                             for k in range(j, n)}
                   for _, f, axis in derivative_terms(*key))
    derived = {}

    def deriv(f, axis):
        key = (id(f), axis)
        if key not in derived:
            derived[key] = d1(chart, f, axis)
        uses[key] -= 1
        return derived[key] if uses[key] else derived.pop(key)

    def terms(j, k):
        for sign, f, axis in derivative_terms(j, k):
            yield sign, deriv(f, axis)
        for m in range(n):
            yield 1, _mul(trace[m], G[m][j][k])
            for l in range(n):
                yield -1, _mul(G[l][j][m], G[m][l][k])

    def entry(j, k):
        return _signed_total(terms(j, k))

    entry = _by_class(entry)
    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            ric[j][k] = ric[k][j] = entry(j, k)
    return ric


def oracle_curvature(chart: TorusChart, phi, route: str = "chain"):
    """Recompute Schouten data from Christoffel symbols of g_ij = e^{2 phi} d_ij.

    Works index by index in the full n-dimensional chart; fields are constant
    along the inactive axes so their partials vanish. Those vanishing partials,
    and every Christoffel symbol and product built only from them, are held as
    None and skipped, which leaves the surviving sums in their index order.
    Entries that differ only by a permutation of the inactive axes are built
    once and shared (_by_class). Returns a dict with scal, J, Psq and the
    active 2x2 block of Schouten components.

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
        ric = _ricci(chart, gradient(chart, phi))
    elif route == "metric":
        ric = _ricci(chart, [0.5 * Einv * d1(chart, E, 0), 0.5 * Einv * d1(chart, E, 1)])
    else:
        raise ValueError(f"unknown oracle route {route!r}")

    scal = Einv * _total(ric[j][j] for j in range(n))
    J = scal / (2.0 * (n - 1.0))
    JE = J * E

    def schouten(j, k):
        p = _sub(ric[j][k], JE if j == k else None)
        return None if p is None else p / (n - 2.0)

    schouten = _by_class(schouten)
    P = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            P[j][k] = P[k][j] = schouten(j, k)
    Psq = Einv ** 2 * _total(p ** 2 for row in P for p in row if p is not None)
    return {
        "scal": scal,
        "J": J,
        "Psq": Psq,
        "P_active": [[P[i][k] for k in range(2)] for i in range(2)],
    }
