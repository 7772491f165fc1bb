"""Seeded conformal-factor presets on the 2-torus.

Each preset is a small trigonometric polynomial with per-axis wavenumbers at
most 1 and modest amplitude, so curvature stays well resolved at the grid
sizes the checks run on. Coefficients are drawn from the seed alone; sampling
the same preset on a finer grid refines the same underlying function.
"""

from __future__ import annotations

import numpy as np

from .grid import TorusChart

# Per-axis wavenumber is capped at 1, so the 32-point spectral chart resolves
# every preset and rounding alone limits the checks made on it.
_MODES = ((1, 0), (0, 1), (1, 1), (1, -1))

PRESETS = {
    "flat": dict(modes=(), amplitude=0.0),
    "trig1": dict(modes=((1, 0), (0, 1)), amplitude=0.1),
    "trig2": dict(modes=_MODES, amplitude=0.05),
    "trig3": dict(modes=((1, 0), (1, 1), (1, -1)), amplitude=0.08),
}


def preset_phi(chart: TorusChart, name: str, seed: int = 7):
    """Sample the named preset on the chart; deterministic in (name, seed)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    modes, amp = PRESETS[name]["modes"], PRESETS[name]["amplitude"]
    rng = np.random.default_rng(seed)
    # Draw one (coefficient, phase) pair per mode before touching the mesh so
    # the function is independent of resolution.
    coeffs = rng.uniform(0.5, 1.0, size=len(modes)) * rng.choice([-1.0, 1.0], size=len(modes))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(modes))
    x1, x2 = chart.mesh()
    phi = chart.zeros()
    for (k1, k2), c, theta in zip(modes, coeffs, phases):
        phi += amp * c * np.cos(k1 * x1 + k2 * x2 + theta)
    return phi
