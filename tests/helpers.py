"""Helpers shared by the test modules."""

import numpy as np


def mesh(chart):
    """The chart's coordinate fields (x1, x2), each of the chart's shape."""
    x1, x2 = (np.arange(size) * chart.spacing(axis) for axis, size in enumerate(chart.shape))
    return np.meshgrid(x1, x2, indexing="ij")
