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

    def mesh(self):
        x1 = np.arange(self.shape[0]) * self.spacing(0)
        x2 = np.arange(self.shape[1]) * self.spacing(1)
        return np.meshgrid(x1, x2, indexing="ij")

    def cell_volume(self) -> float:
        return self.spacing(0) * self.spacing(1)

    def zeros(self):
        return np.zeros(self.shape)


# Values per block of the blocked stencil and of the pointwise identity
# checks: 2^15 float64 (256 KiB), so that a block's operands and its scratch
# stay in cache.
BLOCK = 1 << 15


def cell_blocks(size: int):
    """Flat ranges of at most BLOCK cells covering size cells, in order."""
    return [slice(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK)]


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


def d1(chart: TorusChart, f, axis: int, out=None):
    """First derivative along an axis by the chart's derivative. With out, a
    C-ordered field of f's shape that shares no memory with f, the
    derivative is added into out, with the bits of out + d1(chart, f, axis),
    and out is returned."""
    if chart.derivative == "spectral":
        shape = [1, 1]
        shape[axis] = -1
        ik = 1j * wavenumbers(chart.shape[axis]).reshape(shape)
        df = np.fft.ifft(ik * np.fft.fft(f, axis=axis), axis=axis).real
        if out is None:
            return df
        out += df
        return out
    return _stencil_d1(chart, f, axis, out)


def _stencil_d1(chart: TorusChart, f, axis: int, out=None):
    """4th-order first derivative: (-f2 + 8 f1 - 8 f-1 + f-2) / 12h.

    f is read flat, where a shift by k along the axis is a shift by k * step
    (step = cols on axis 0, 1 on axis 1), so every shifted operand is a slice
    of f itself. The formula runs block by block with one scratch block, in
    the order ((-f2 + 8 f1) - 8 f-1) + f-2 of the whole-array expression, so
    the bits are those of that expression over np.roll shifts. It runs in a
    fresh output, or, with out given, in a second scratch block that is then
    added into out. The flat shifts do not wrap around the torus: the rows
    (axis 0) or columns (axis 1) 0, 1, -2 and -1 are evaluated again from
    their gathered periodic neighbours.
    """
    h12 = 12.0 * chart.spacing(axis)
    f = np.ascontiguousarray(f, dtype=float)
    size, n = f.size, f.shape[axis]
    step = f.shape[1] if axis == 0 else 1
    flat = f.reshape(-1)
    add = out is not None
    if not add:
        out = np.empty(f.shape)
    elif out.shape != f.shape or not out.flags.c_contiguous or np.may_share_memory(out, f):
        raise ValueError("d1 adds only into a C-ordered field of f's shape, apart from f")
    flat_out = out.reshape(-1)
    edge = np.array([0, 1, n - 2, n - 1])
    index = edge if axis == 0 else (slice(None), edge)
    # the flat blocks also write the wrapped columns of axis 1
    before = out[index] if add else None
    tmp = np.empty(min(BLOCK, size))
    acc = np.empty_like(tmp) if add else None
    # the values whose four flat neighbours all lie inside f
    for start in range(2 * step, size - 2 * step, BLOCK):
        stop = min(start + BLOCK, size - 2 * step)
        o, t = flat_out[start:stop], tmp[:stop - start]
        a = acc[:stop - start] if add else o

        def shifted(k):  # f at flat offset k * step, for this block
            return flat[start + k * step:stop + k * step]

        np.negative(shifted(2), out=a)
        np.add(a, np.multiply(8.0, shifted(1), out=t), out=a)
        np.subtract(a, np.multiply(8.0, shifted(-1), out=t), out=a)
        np.add(a, shifted(-2), out=a)
        np.divide(a, h12, out=a)
        if add:
            np.add(o, a, out=o)

    def near(k):
        return np.take(f, (edge + k) % n, axis=axis)

    wrapped = (-near(2) + 8.0 * near(1) - 8.0 * near(-1) + near(-2)) / h12
    out[index] = wrapped if before is None else before + wrapped
    return out


def hessian(chart: TorusChart, grad):
    """Nested first-derivative Hessian [[f_11, f_12], [f_12, f_22]] of a
    field, from its gradient pair (d1(f, 0), d1(f, 1)).

    curvature() and the Christoffel oracle both take second derivatives as
    nested first derivatives, so their comparison is not polluted by the
    truncation gap between those and a direct second-derivative stencil.
    """
    g0, g1 = grad
    mixed = d1(chart, g1, 0)
    return [[d1(chart, g0, 0), mixed], [mixed, d1(chart, g1, 1)]]


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
