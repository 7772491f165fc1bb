"""Periodic 2-torus charts and their first derivatives.

Fields are float64 arrays on a uniform [0, 2pi)^2 grid. A chart's derivative
is either the 4th-order centered stencil (the default) or the Fourier
derivative with the Nyquist mode zeroed (Trefethen, Spectral Methods in
MATLAB, ch. 3). Both are antisymmetric under the grid transpose (the stencil
bit for bit), which the adjoint machinery relies on; second derivatives are
nested first derivatives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"HQF1"


@dataclass(frozen=True)
class TorusChart:
    """Uniform periodic grid on [0, 2pi)^2 in dimension n; d1 by its derivative."""

    n: int
    shape: tuple
    derivative: str = "stencil"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("background dimension must be at least 3")
        if len(self.shape) != 2 or any(s < 8 for s in self.shape):
            raise ValueError("grid shape must be two axes of at least 8 points")
        if self.derivative not in ("stencil", "spectral"):
            raise ValueError(f"unknown derivative {self.derivative!r}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    def spacing(self, axis: int) -> float:
        return 2.0 * np.pi / self.shape[axis]

    def cell_volume(self) -> float:
        return self.spacing(0) * self.spacing(1)

    def zeros(self):
        return np.zeros(self.shape)


# Values per block of every blocked loop: 2^14 float64 (128 KiB), so that a
# block's operands and its scratch stay in cache, and a pass's per-block
# transients stay a sixteenth of a 512^2 field each.
BLOCK = 1 << 14


def blocks(size: int, spectral: bool = False):
    """The flat ranges of cells, in order, that every blocked loop over a
    grid of size cells walks: where numpy's pairwise summation splits them
    (halves rounded down to a multiple of 8), down to leaves of at most
    max(BLOCK, 128) cells, so that sums formed a block at a time combine
    with np.sum's bits (pairwise_sums). On the spectral chart, whose
    Fourier d1 reads every cell, all the cells at once."""
    if spectral or size <= max(BLOCK, 128):
        return [slice(0, size)]
    half = size // 2 - size // 2 % 8
    return blocks(half) + [slice(half + c.start, half + c.stop) for c in blocks(size - half)]


def pairwise_sums(parts):
    """Sums over a grid's cells with np.sum's bits, from parts, one pair
    (cells, sums) per range that blocks gives, in order, sums a list of
    np.sum's over the range. numpy sums n > 128 values pairwise: the sum of
    the first n // 2 rounded down to a multiple of 8 plus the sum of the
    rest (its pairwise_sum). Each range is a node of that split, so its
    sums are added as numpy adds them."""
    parts = list(reversed(parts))

    def combine(size):
        cells, sums = parts[-1]
        if cells.stop - cells.start == size:
            parts.pop()
            return sums
        half = size // 2 - size // 2 % 8
        left = combine(half)
        return [a + b for a, b in zip(left, combine(size - half))]

    return combine(parts[0][0].stop)


def cell_view(f, cells):
    """Read-only view of a contiguous field f on a flat range of cells."""
    view = f.reshape(-1)[cells]
    view.flags.writeable = False
    return view


def wavenumbers(size: int):
    """np.fft.fft's integer wavenumbers along an axis of size points, the
    Nyquist mode zeroed so that the spectral d1 is real and antisymmetric."""
    k = np.arange(size, dtype=float)
    k[(size + 1) // 2:] -= size
    if size % 2 == 0:
        k[size // 2] = 0.0
    return k


def d1(chart: TorusChart, f, axis: int):
    """First derivative along an axis by the chart's derivative. f is a
    field, or a function of a flat range of cells giving f's values there
    as a flat array (see rows), so that f is never whole on the stencil
    chart. The output is filled a block at a time (partials)."""
    f = _operand(f)
    out = np.empty(chart.shape)
    flat = out.reshape(-1)
    for cells in blocks(flat.size, chart.derivative == "spectral"):
        partials(chart, f, cells, ((0, axis),), flat[cells])
    return out


def partials(chart: TorusChart, f, cells, terms=((0, 0), (0, 1)), out=None):
    """[d1(f_i, axis) for (i, axis) in terms] on a flat range of cells, as
    flat arrays; axis None gives f_i itself there. f is a field, or a
    function of a flat range of cells giving one field's values or a tuple
    of fields' values there (f_0, f_1, ...), read on the range's whole rows
    widened by two (rows): on the spectral chart, on every cell. Each f_i
    is dropped after the last term that reads it, and the terms share one
    scratch. With out, a flat array of the range's size, the first term is
    formed in out, which is given in its place: where the range is whole
    rows, by the stencil itself."""
    f = _operand(f)
    cols = chart.shape[1]
    spectral = chart.derivative == "spectral"
    lo, hi = (0, chart.shape[0]) if spectral else (
        cells.start // cols - 2, -(-cells.stop // cols) + 2)
    operands = list(rows(chart, f, lo, hi))
    last = {i: t for t, (i, _) in enumerate(terms)}
    start = cells.start - lo * cols
    stop = start + cells.stop - cells.start
    size = (hi - lo - 4) * cols  # the range's whole rows
    scratch = None if spectral else np.empty(size)
    parts = []
    for t, (i, axis) in enumerate(terms):
        g = operands[i]
        if last[i] == t:
            operands[i] = None
        if axis is None:
            part = g[start:stop]
        elif spectral:
            part = _spectral_d1(chart, g.reshape(chart.shape), axis).reshape(-1)[start:stop]
        elif t == 0 and out is not None and out.size == size:
            part = _stencil(chart, g, axis, out, scratch)
        else:
            part = _stencil(chart, g, axis, np.empty(size), scratch)[start - 2 * cols:stop - 2 * cols]
        if t == 0 and out is not None and part is not out:
            out[...] = part
            part = out
        parts.append(part)
    return parts


def rows(chart: TorusChart, f, lo: int, hi: int):
    """The values of f on the grid's whole rows lo..hi-1, taken mod its
    number of rows, as a tuple of flat arrays. f is a field, read through
    views where the rows do not wrap, or a function of a flat range of
    cells giving one field's values there or a tuple of fields' values,
    called on each run of the rows that does not wrap; where they wrap, the
    runs are joined, one field at a time."""
    nrows, cols = chart.shape
    parts, r = [], lo
    while r < hi:
        first = r % nrows
        last = min(nrows, first + hi - r)
        cells = slice(first * cols, last * cols)
        part = f(cells) if callable(f) else f.reshape(-1)[cells]
        parts.append(part if isinstance(part, tuple) else (part,))
        r += last - first
    if len(parts) == 1:
        return parts[0]
    columns = [list(column) for column in zip(*parts)]
    del parts, part  # so that each column's runs are dropped once it is joined
    return tuple(np.concatenate(columns.pop(0)) for _ in range(len(columns)))


def _stencil(chart: TorusChart, g, axis: int, out, scratch):
    """4th-order first derivative (-f2 + 8 f1 - 8 f-1 + f-2) / 12h along an
    axis, on whole rows of a field, into out (flat), from g, the field's
    values on those rows and two more above and below them (flat, as rows
    gives them), through scratch, a flat array of out's size.

    In g a shift by k along the axis is a shift by k * step (step = cols on
    axis 0, 1 on axis 1), so every shifted operand is a slice of g. The
    formula runs in the order ((-f2 + 8 f1) - 8 f-1) + f-2 of the
    whole-array expression, so the bits are those of that expression over
    np.roll shifts. On axis 1 the flat shifts do not wrap around a row:
    the columns 0, 1, -2 and -1 are evaluated again from their gathered
    periodic neighbours."""
    h12 = 12.0 * chart.spacing(axis)
    cols = chart.shape[1]
    step = cols if axis == 0 else 1
    start, stop = 2 * cols, 2 * cols + out.size

    def shifted(k):  # the rows' values at flat offset k * step
        return g[start + k * step:stop + k * step]

    np.negative(shifted(2), out=out)
    np.add(out, np.multiply(8.0, shifted(1), out=scratch), out=out)
    np.subtract(out, np.multiply(8.0, shifted(-1), out=scratch), out=out)
    np.add(out, shifted(-2), out=out)
    np.divide(out, h12, out=out)
    if axis == 1:
        # the columns -4..3 of the rows, one row of ring each, so that the
        # columns -2, -1, 0 and 1 shifted by k are ring's rows 2 + k .. 5 + k
        inner = g[start:stop].reshape(-1, cols)
        ring = np.empty((8, len(inner)))
        ring[:4], ring[4:] = inner[:, -4:].T, inner[:, :4].T

        def near(k):
            return ring[2 + k:6 + k]

        wrapped = (-near(2) + 8.0 * near(1) - 8.0 * near(-1) + near(-2)) / h12
        out2d = out.reshape(-1, cols)
        out2d[:, -2:], out2d[:, :2] = wrapped[:2].T, wrapped[2:].T
    return out


def _operand(f):
    """f as rows reads it: a function as it is, a field C-ordered."""
    return f if callable(f) else np.ascontiguousarray(f, dtype=float)


def _spectral_d1(chart: TorusChart, f, axis: int):
    """The Fourier derivative of a whole field along an axis."""
    shape = [1, 1]
    shape[axis] = -1
    ik = 1j * wavenumbers(chart.shape[axis]).reshape(shape)
    return np.fft.ifft(ik * np.fft.fft(f, axis=axis), axis=axis).real


def save_field(path, chart: TorusChart, f) -> None:
    """Write a grid field: magic, uint32 n/rows/cols, row-major float64 LE."""
    f = np.ascontiguousarray(f, dtype="<f8")
    if f.shape != chart.shape:
        raise ValueError(f"field shape {f.shape} does not match chart {chart.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", chart.n, chart.shape[0], chart.shape[1]))
        fh.write(f.tobytes())


def load_field(path):
    """Read a grid field; returns (TorusChart, array)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a grid field file (magic {magic!r})")
        n, rows, cols = struct.unpack("<III", fh.read(12))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"field payload has {data.size} values, expected {rows * cols}")
    return TorusChart(n, (rows, cols)), data.reshape(rows, cols).copy()
