"""Periodic 2-torus charts and 4th-order centered difference stencils.

Fields are float64 arrays on a uniform [0, 2pi)^2 grid. The first-derivative
stencil is exactly antisymmetric under the grid transpose, which the adjoint
machinery relies on; second derivatives are nested first derivatives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"HQF1"


@dataclass(frozen=True)
class TorusChart:
    """Uniform periodic grid on [0, 2pi)^2 in background dimension n."""

    n: int
    shape: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("background dimension must be at least 3")
        if len(self.shape) != 2 or any(s < 8 for s in self.shape):
            raise ValueError("grid shape must be two axes of at least 8 points")
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


def _shift(f, s, axis):
    return np.roll(f, -s, axis=axis)


def d1(chart: TorusChart, f, axis: int):
    """4th-order first derivative: (-f2 + 8 f1 - 8 f-1 + f-2) / 12h."""
    h = chart.spacing(axis)
    return (-_shift(f, 2, axis) + 8.0 * _shift(f, 1, axis)
            - 8.0 * _shift(f, -1, axis) + _shift(f, -2, axis)) / (12.0 * h)


def hessian(chart: TorusChart, grad):
    """Nested first-derivative Hessian [[f_11, f_12], [f_12, f_22]] of a
    field, from its gradient pair (d1(f, 0), d1(f, 1)).

    Both curvature routes use this same composition so their comparison is
    not polluted by the truncation gap between a direct second-derivative
    stencil and nested first derivatives.
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
