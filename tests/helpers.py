"""Helpers shared by the test modules."""

import numpy as np

from holoq import conformal, grid


def mesh(chart):
    """The chart's coordinate fields (x1, x2), each of the chart's shape."""
    x1, x2 = (np.arange(size) * chart.spacing(axis) for axis, size in enumerate(chart.shape))
    return np.meshgrid(x1, x2, indexing="ij")


def inner(b, f, g) -> float:
    """sum f g W over b's cells, W = conformal.volume_weight: the metric's
    L^2 product of f and g. Each of f and g is a field, a number, or a
    function of a flat range of cells giving its values there. The product
    and its weight are formed a block of cells at a time and summed there;
    the block sums combine as np.sum's (grid.pairwise_sums), so the bits
    are those of np.sum over the whole product."""
    def block_sum(c):
        return [conformal._weighted_sum(_on_cells(f, c.cells), _on_cells(g, c.cells),
                                        conformal.volume_weight(c))]

    return float(grid.pairwise_sums([(c.cells, block_sum(c)) for c in conformal.blocks(b)])[0])


def _on_cells(f, cells):
    """A field, a number or a function of a flat range of cells (see inner)
    on those cells."""
    if callable(f):
        return f(cells)
    return np.ravel(f)[cells] if np.ndim(f) else f


def divergence(chart, flux):
    """grid.d1(F0, 0) + grid.d1(F1, 1), with the bits of that sum, for flux
    a function of a flat range of cells giving the pair (F0, F1) there: the
    two are formed together by grid.partials, a block at a time, the first
    in the output, and are never whole on the stencil chart."""
    out = np.empty(chart.shape)
    flat = out.reshape(-1)
    for cells in grid.blocks(flat.size, chart.derivative == "spectral"):
        first, second = grid.partials(chart, flux, cells, ((0, 0), (1, 1)), flat[cells])
        first += second
    return out
