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
from functools import cached_property
from math import comb

import numpy as np

from . import grid
from .grid import TorusChart, cell_view, d1, partials


# The per-read fields, of a bundle or of a block of its cells (Cells),
# each exponential taken in place of its exponent.

def _em2(c):
    x = -2.0 * c.phi
    return np.exp(x, out=x)


def _en2(c):
    x = (c.n - 2.0) * c.phi
    return np.exp(x, out=x)


def _emn(c):
    x = -float(c.n) * c.phi
    return np.exp(x, out=x)


def _psq(c):
    P = c.P
    frob = sum(P[i][k] ** 2 for i in range(2) for k in range(2))
    return c.em2 ** 2 * (frob + (c.n - 2.0) * c.p_inactive ** 2)


def _lapj(c):
    return -2.0 * c.lap_v2


def _p(c):
    return [[c.P00, c.P01], [c.P01, c.P11]]  # P[1][0] is P[0][1], one array


# The fields a block forms on its Window, in _schouten's order.
SCHOUTEN = ("J", "P00", "P01", "P11", "p_inactive")
# The rows a window adds each side of its block: lap_v2's fluxes read v2 =
# -J/2 two rows beyond the block and their partials two rows beyond those;
# the adjoint sweep's Schouten fluxes read P two rows beyond it.
HALO = 4
# The word of the families (families.family) that the bundle forms as lap_v2.
LAP_V2 = ("D0", "v2")


@dataclass
class CurvatureBundle:
    """Curvature fields of one metric. It keeps only phi. J, P, p_inactive
    and lap_v2, the Laplacian of v2 = -J/2, are formed a block of cells at
    a time where they are read (Window); the first whole read of one forms
    all of them whole and keeps them, as a grid of one block does when the
    bundle is made. lap_v2 is D0(v2), the families' word LAP_V2, and
    -2 lap_v2 is lap J, bit for bit but for a NaN's sign: scaling an
    operand by -1/2 scales every operation of the Laplacian exactly. The
    conformal weights, |P|^2 and lap J are formed per read."""

    chart: TorusChart
    phi: np.ndarray
    n: int = field(init=False)
    # (j, k) -> the (operator, den) pair of T*_{2j}(v_{2k}), filled by
    # families.family on first use
    family_polys: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != self.chart.shape:
            raise ValueError(f"phi shape {phi.shape} does not match chart {self.chart.shape}")
        self.phi = phi
        self.n = self.chart.n
        cells, *rest = grid.blocks(phi.size, self.chart.derivative == "spectral")
        if not rest:  # one block, whose window is every cell: the fields are whole
            window = Window(self, cells)
            for key in SCHOUTEN + ("lap_v2",):
                setattr(self, key, window.field(key)[1].reshape(self.chart.shape))

    def __getattr__(self, name):  # reached only by names not yet set
        names = SCHOUTEN + ("lap_v2",)
        if name not in names:
            raise AttributeError(name)
        for key, whole in zip(names, assembled(self, lambda c: [getattr(c, k) for k in names])):
            setattr(self, key, whole)
        return getattr(self, name)

    # e^{-2 phi}: past the bundle, |P|^2, the D_k with k >= 1 and the v_{2k}
    # with k >= 3 read it
    em2 = property(_em2)
    en2 = property(_en2)
    emn = property(_emn)
    P = property(_p)
    Psq = property(_psq)  # |P|^2 in the metric
    lapJ = property(_lapj)

    def view(self, f):
        """A whole field as this bundle reads it: the field itself."""
        return f


class Cells:
    """A bundle on a flat range of its cells, which holo_coeffs and the
    families read as they read the bundle: read-only views of its fields,
    each taken on first read, from which the per-read fields are formed
    (|P|^2, the one read most, once), and the families formed on these
    cells (families.family_poly). A block of blocks(b), and a range of its
    window's rows (on), reads the fields but phi from the block's Window;
    Cells without one, or of a bundle that has them whole, read the whole
    fields."""

    em2 = property(_em2)
    en2 = property(_en2)
    emn = property(_emn)
    P = property(_p)
    Psq = cached_property(_psq)
    lapJ = property(_lapj)

    def __init__(self, b: CurvatureBundle, cells, window=None):
        self.bundle, self.chart, self.n, self.cells = b, b.chart, b.n, cells
        self.window = window
        self.formed = {}

    def __getattr__(self, name):  # reached only by names not yet set
        if name not in ("phi", "lap_v2") + SCHOUTEN:
            raise AttributeError(name)
        b = self.bundle
        if name == "phi" or self.window is None or "J" in vars(b):
            value = self.view(getattr(b, name))
        else:
            start, f = self.window.field(name)
            at = (self.cells.start - start) % b.phi.size
            value = cell_view(f, slice(at, at + self.cells.stop - self.cells.start))
        setattr(self, name, value)
        return value

    def view(self, f):
        """A whole field of the bundle on these cells, read-only."""
        return cell_view(f, self.cells)

    def on(self, cells):
        """The bundle on a flat range of cells of its window's rows."""
        return Cells(self.bundle, cells, self.window)


class Window:
    """The fields of a block of a bundle's cells, formed on the first read
    of one: J, P and p_inactive on the block's rows and HALO more each
    side, taken mod the grid's rows (every row where those are as many, or
    the chart is spectral), then lap_v2 on the block's cells from v2 = -J/2
    on them."""

    def __init__(self, b: CurvatureBundle, cells):
        self.bundle, self.cells, self.fields = b, cells, {}

    def field(self, name):
        """(the flat cell of its first value, the flat array) of a field."""
        b, cells, fields = self.bundle, self.cells, self.fields
        if not fields:
            nrows, cols = b.chart.shape
            lo, hi = cells.start // cols - HALO, -(-cells.stop // cols) + HALO
            if hi - lo >= nrows or b.chart.derivative == "spectral":
                lo, hi = 0, nrows
            arrays = grid.rows(b.chart, lambda run: _schouten(b, run), lo, hi)
            fields.update((key, (lo * cols, a)) for key, a in zip(SCHOUTEN, arrays))
            c = Cells(b, cells, self)
            fields["lap_v2"] = cells.start, _operator(
                c, laplacian_flux, lambda rows: holo_coeffs(c.on(rows), 1))
        return fields[name]


def _schouten(b: CurvatureBundle, cells):
    """(J, P00, P01, P11, p_inactive) on a flat range of b's cells, from
    phi's partials on its rows and two more rows each side, and the Hessian
    from them. Each operation is the one numpy runs on a whole field of
    2^15 cells or more, where it elides a temporary into an in-place
    operation: the bits are those of the whole-field expressions, NaN signs
    included."""
    ch, n = b.chart, b.n

    def dphi(rows):  # phi's partials on a flat range of cells
        return tuple(partials(ch, b.phi, rows))

    dp0, dp1, h00, h01, h11 = partials(
        ch, dphi, cells, ((0, None), (1, None), (0, 0), (1, 0), (1, 1)))
    dp, hess = (dp0, dp1), ((h00, h01), (h01, h11))
    gradsq = dp0 * dp0 + dp1 * dp1
    lap0 = h00 + h11
    # J = -em2 * (lap0 + 0.5 (n - 2) gradsq)
    j = np.multiply(0.5 * (n - 2.0), gradsq)
    j += lap0
    J = -_em2(Cells(b, cells))
    J *= j
    # P = -hess + dp dp - gradsq/2 on the diagonal, in the Hessian's place
    P = []
    for i, k in ((0, 0), (0, 1), (1, 1)):
        P.append(np.negative(hess[i][k], out=hess[i][k]))
        P[-1] += dp[i] * dp[k]
        if i == k:
            P[-1] -= 0.5 * gradsq
    return (J, *P, np.multiply(-0.5, gradsq, out=gradsq))


def blocks(b: CurvatureBundle):
    """b on each range of its cells that grid.blocks gives, in order, each
    a block that reads its own Window; where there is one block, whose
    window would be every cell, it reads the bundle's whole fields."""
    cuts = grid.blocks(b.phi.size, b.chart.derivative == "spectral")
    return (Cells(b, cells, Window(b, cells) if len(cuts) > 1 else None) for cells in cuts)


def assembled(b: CurvatureBundle, read):
    """The whole field of read, a function of a block of b's cells (Cells)
    giving a field's values there, formed a block at a time; the list of
    whole fields where read gives a list of fields' values."""
    out, single = None, False
    for c in blocks(b):
        parts = read(c)
        single = not isinstance(parts, list)
        if single:
            parts = [parts]
        if out is None:
            out = [np.empty(b.chart.shape) for _ in parts]
        for whole, part in zip(out, parts):
            whole.reshape(-1)[c.cells] = part
        del parts  # before the next block's are formed
    return out[0] if single else out


def curvature(chart: TorusChart, phi) -> CurvatureBundle:
    return CurvatureBundle(chart, phi)


def laplacian_flux(c, g0, g1):
    """The Laplacian's fluxes e^{(n-2) phi} (g0, g1) on a block of cells c
    (Cells), from f's partials g0 and g1 there, formed in their place."""
    en2 = _en2(c)
    return np.multiply(en2, g0, out=g0), np.multiply(en2, g1, out=g1)


def contracted_flux(B, g0, g1):
    """The divergence form's fluxes (B00 g0 + B01 g1, B01 g0 + B11 g1) on a
    block of cells, from B, the list of B's entries there, which it empties,
    and f's partials g0 and g1 there, which it only reads. Each entry is
    dropped after its last read, so that at most four block arrays besides
    g0 and g1 are alive."""
    B00, B01, B11 = B
    B.clear()
    first = np.multiply(B00, g0)
    del B00
    t = B01 * g1
    first += t
    second = np.multiply(B01, g0, out=t)
    del B01
    t = B11 * g1
    del B11
    second += t
    return first, second


def _operator(c, fluxes, f, out=None):
    """e^{-n phi} (d_0 F_0 + d_1 F_1) on a block c (Cells), in out where
    given: the divergence of the fluxes (F_0, F_1) = fluxes(r, g0, g1), r
    the bundle on a range of the block's widened rows (c.on) and g0, g1
    f's partials there. f is a field or a function of a flat range of cells
    (grid.partials); the fluxes, their partials and the weight are formed
    on the block alone."""
    ch = c.chart
    out, second = partials(ch, lambda rows: fluxes(c.on(rows), *partials(ch, f, rows)),
                           c.cells, ((0, 0), (1, 1)), out)
    out += second
    out *= _emn(c)
    return out


def _whole_operator(b: CurvatureBundle, fluxes, f):
    """_operator on each block of b, into one whole field."""
    out = np.empty(b.chart.shape)
    for c in blocks(b):
        _operator(c, fluxes, f, out.reshape(-1)[c.cells])
    return out


def laplacian(b: CurvatureBundle, f):
    """Laplace-Beltrami operator in conservative (divergence) form, of a
    field f or of a function of a flat range of cells giving f's values
    there (grid.d1). The fluxes (laplacian_flux), their weight and f's
    partials are formed together a block at a time (_operator), and on
    the stencil chart are never whole; so is the weight e^{-n phi}."""
    return _whole_operator(b, laplacian_flux, f)


def divergence_form(b: CurvatureBundle, B, f):
    """e^{-n phi} d_a(B^{ab} d_b f) for a symmetric field B = (B00, B01, B11),
    self-adjoint in the weighted inner product since d1 is antisymmetric.
    B is a function of a bundle or a block of its cells (Cells) giving the
    list of its three entries there (schouten_flux, _flux); f is a field or
    a function of a flat range of cells (grid.d1). The fluxes
    (contracted_flux), B's entries and f's partials are formed together a
    block at a time (_operator), and on the stencil chart are never whole;
    so is the weight e^{-n phi}."""
    return _whole_operator(b, lambda r, g0, g1: contracted_flux(B(r), g0, g1), f)


def holo_coeffs(b, k: int):
    """v_{2k}, the r^{2k} coefficient of det(1 - r^2 A/2), A = g^{-1} P:
    -J/2 and (J^2 - |P|^2)/8 for k = 1, 2, and (-1/2)^k sigma_k(A) above,
    from A's active 2x2 block and its inactive eigenvalue (multiplicity n - 2),
    on a bundle or a block of its cells."""
    if k == 0:  # read-only, and no field is allocated
        return np.broadcast_to(1.0, np.shape(b.phi))
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


def _flux(c, k: int):
    """[B00, B01, B11] of B_k = e^{(n-2) phi} sum_{m<=k} (m+1) 2^{-m} v_{2k-2m} Ahat^m,
    Ahat = e^{-2 phi} P on the active block: the r^{2k} coefficient of
    sqrt(det g_r) g_r^{-1}, g_r = g (1 - r^2 A/2)^2. On a bundle or a block
    of its cells, where the divergence form reads it. Built per use, never
    kept."""
    em2 = c.em2
    hat = (em2 * c.P[0][0], em2 * c.P[0][1], em2 * c.P[1][1])
    power, B = (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)
    for m in range(k + 1):
        if m:  # Ahat^m = Ahat^{m-1} Ahat, built symmetric
            (p00, p01, p11), (h00, h01, h11) = power, hat
            power = (p00 * h00 + p01 * h01, p00 * h01 + p01 * h11, p01 * h01 + p11 * h11)
        w = (m + 1) / 2**m * (holo_coeffs(c, k - m) if m < k else 1.0)
        # w p + x: the operand order numpy takes for x + w p on a whole
        # field of 2^15 cells or more, where it adds in place into w p
        B = tuple(w * p + x for x, p in zip(B, power))
    en2 = c.en2
    return [en2 * x for x in B]


def volume_weight(c):
    """e^{n phi} times the cell volume, the weight of the metric's L^2
    product, on a bundle or a block of its cells. Built per use, never
    kept."""
    return np.exp(float(c.n) * c.phi) * c.chart.cell_volume()


def schouten_weight(c):
    """The weight w = -e^{(n-4) phi} of the divergence form's Schouten case
    B = w P (schouten_flux), on a bundle or a block of its cells. Built per
    use, never kept."""
    w = np.exp((c.n - 4.0) * c.phi)
    return np.negative(w, out=w)


def schouten_flux(c):
    """[w P00, w P01, w P11], w = schouten_weight: the divergence form's
    Schouten case, on a bundle or a block of its cells, where
    divergence_form(b, schouten_flux, f) reads it; the last is formed in
    w's place. Built per use, never kept."""
    w = schouten_weight(c)
    return [w * c.P[0][0], w * c.P[0][1], np.multiply(w, c.P[1][1], out=w)]


def _weighted_sum(x, y, w):
    """np.sum of (x y) w on a block of cells."""
    xyw = np.multiply(x, y)
    xyw *= w
    return np.sum(xyw)


def pairing_sums(c, f, g):
    """The sums on a block of cells c (Cells) of the products of
    (<f, g>, <L f, g>, <f, L g>, <S f, g>, <f, S g>) in the metric's L^2
    product (weight volume_weight), L the Laplacian and S =
    divergence_form(b, schouten_flux, .), for f and g each a field or a
    function of a flat range of cells: the pairings that decide whether L
    and S are self-adjoint. Each of f and g is formed once, on the block's
    rows and four more each side, and its partials feed the fluxes of both
    operators, one after the other: the Schouten case's (contracted_flux),
    which only reads them, then the Laplacian's in their place
    (laplacian_flux). Each weight is formed once. The sums of a sweep over
    the blocks combine as np.sum's (grid.pairwise_sums), so each pairing
    has the bits of np.sum over the whole weighted product of the
    operators' whole outputs, and no output is whole."""
    ch = c.chart

    def outputs(h):
        """L h, S h and h on the block."""
        def fluxes(rows):
            r = c.on(rows)
            h0, h1, h_rows = partials(ch, h, rows, ((0, 0), (0, 1), (0, None)))
            s_flux = contracted_flux(schouten_flux(r), h0, h1)
            return (*laplacian_flux(r, h0, h1), *s_flux, h_rows)

        l0, l1, s0, s1, h_cells = partials(ch, fluxes, c.cells, ((0, 0), (1, 1), (2, 0), (3, 1),
                                                                 (4, None)))
        l0 += l1
        s0 += s1
        return l0, s0, h_cells

    lf, sf, f_cells = outputs(f)
    lg, sg, g_cells = outputs(g)
    emn, w = _emn(c), volume_weight(c)
    for out in (lf, lg, sf, sg):
        out *= emn
    return [_weighted_sum(x, y, w) for x, y in ((f_cells, g_cells), (lf, g_cells),
                                                (f_cells, lg), (sf, g_cells), (f_cells, sg))]


def apply_primitive(b: CurvatureBundle, name: str, f):
    """Apply one self-adjoint primitive to a field: 'v<2k>' multiplies by
    v_{2k}, 'D0' is the Laplacian, 'D<k>' the divergence form of B_k."""
    kind, k = name[0], int(name[1:])
    if kind == "v":
        return holo_coeffs(b, k // 2) * f
    if kind == "D":
        return laplacian(b, f) if k == 0 else divergence_form(b, lambda c: _flux(c, k), f)
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
    lam = [d1(chart, phi, 0), d1(chart, phi, 1)] + [zero] * (n - 2)

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
