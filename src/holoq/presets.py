"""Seeded conformal-factor presets on the 2-torus.

Each preset is a small trigonometric polynomial with per-axis wavenumbers at
most 1 and modest amplitude, so curvature stays well resolved at the grid
sizes the checks run on. Coefficients are drawn from the seed alone; sampling
the same preset on a finer grid refines the same underlying function.

The draws come from _Stream, a pure-Python port of the stream of numpy's
default_rng(seed) (a SeedSequence seeding a PCG64 bit generator), reduced to
the two draws a preset makes. Its values are numpy's bit for bit, so every
preset keeps the coefficients it had when numpy drew them. The port pins
them even if a later numpy changes its Generator stream, which NEP 19
allows, and spares every holoq process the import of numpy's random module
(about 6 MB resident and 17 ms).
"""

from __future__ import annotations

import operator
from math import pi

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

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash constants (numpy's bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy's pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int):
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words
    hashed into a pool of four, then four 64-bit words drawn from the pool."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = (h * _MULT_B) & _M32
        value = (value * h) & _M32
        out.append(value ^ (value >> 16))
    return [out[2 * i] | (out[2 * i + 1] << 32) for i in range(4)]


class _Stream:
    """The draws of numpy's default_rng(seed); a negative seed raises
    ValueError, as numpy's does."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        # pcg_setseq_128_srandom_r with state s0:s1 and sequence i0:i1: a
        # step from 0, the state added, one more step
        self._inc = (((i0 << 64 | i1) << 1) | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) & _M128
        self._step()
        self._half = None  # the upper half of a 64-bit draw, kept for next32

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def next64(self) -> int:
        """PCG64's XSL-RR output of the next state."""
        self._step()
        x = ((self._state >> 64) ^ self._state) & _M64
        rot = self._state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def next32(self) -> int:
        """The low half of a 64-bit draw; its high half serves the next call."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float, k: int):
        """Generator.uniform(low, high, k): low + (high - low) * a 53-bit double."""
        return [low + (high - low) * ((self.next64() >> 11) * 2.0**-53) for _ in range(k)]

    def signs(self, k: int):
        """Generator.choice([-1.0, 1.0], k): Lemire's bounded draw with bound 2
        on next32, whose rejection threshold (2^32 - 2) mod 2 is 0, so each
        index is the draw's top bit."""
        return [(-1.0, 1.0)[self.next32() >> 31] for _ in range(k)]


def preset_phi(chart: TorusChart, name: str, seed: int = 7):
    """Sample the named preset on the chart; deterministic in (name, seed)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    modes, amp = PRESETS[name]["modes"], PRESETS[name]["amplitude"]
    rng = _Stream(seed)
    # Draw one (coefficient, phase) pair per mode before touching the mesh so
    # the function is independent of resolution.
    coeffs = [u * s for u, s in zip(rng.uniform(0.5, 1.0, len(modes)), rng.signs(len(modes)))]
    phases = rng.uniform(0.0, 2.0 * pi, len(modes))
    # The sum of amp c cos(k1 x1 + k2 x2 + theta) over the modes, from the
    # axes' coordinate vectors: a mode along one axis is a cosine on that
    # axis broadcast over the other (0 x is +0.0 on the non-negative
    # coordinates, and adding it changes no cosine); any other forms its
    # argument in one broadcast buffer. Every value has the bits of the same
    # expression on whole coordinate fields.
    x1, x2 = (np.arange(size) * chart.spacing(axis) for axis, size in enumerate(chart.shape))
    phi = chart.zeros()
    for (k1, k2), c, theta in zip(modes, coeffs, phases):
        if k2 == 0:
            phi += (amp * c * np.cos(k1 * x1 + theta))[:, None]
        elif k1 == 0:
            phi += amp * c * np.cos(k2 * x2 + theta)
        else:
            arg = np.add.outer(k1 * x1, k2 * x2)
            arg += theta
            phi += np.multiply(amp * c, np.cos(arg, out=arg), out=arg)
    return phi
