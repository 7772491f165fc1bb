"""Preset draws: the pure-Python port of numpy's default_rng stream."""

import math

import numpy as np
import pytest

from holoq.grid import TorusChart
from holoq.presets import PRESETS, _Stream, preset_phi
from helpers import mesh

SEEDS = [*range(300), 2**32 + 5, 2**40 + 3, 10**20]


def numpy_preset_phi(chart, name, seed):
    """preset_phi as first written, with numpy's generator: the reference the
    port must reproduce bit for bit."""
    modes, amp = PRESETS[name]["modes"], PRESETS[name]["amplitude"]
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.0, size=len(modes)) * rng.choice([-1.0, 1.0], size=len(modes))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(modes))
    x1, x2 = mesh(chart)
    phi = chart.zeros()
    for (k1, k2), c, theta in zip(modes, coeffs, phases):
        phi += amp * c * np.cos(k1 * x1 + k2 * x2 + theta)
    return phi


def test_draws_equal_numpys():
    # one stream per seed, the preset's three draws for k = 2, 3, 4 in turn:
    # an odd k leaves half a 64-bit draw buffered for the next signs
    for seed in SEEDS:
        rng, port = np.random.default_rng(seed), _Stream(seed)
        for k in (2, 3, 4):
            want = [rng.uniform(0.5, 1.0, k), rng.choice([-1.0, 1.0], k),
                    rng.uniform(0.0, 2.0 * np.pi, k)]
            got = [port.uniform(0.5, 1.0, k), port.signs(k), port.uniform(0.0, 2.0 * math.pi, k)]
            for a, b in zip(want, got):
                assert np.array(b).tobytes() == a.tobytes(), seed


def test_raw_draws_equal_numpys():
    for seed in (0, 7, 2**64 + 1, 2**200 + 3):
        bits = np.random.default_rng(seed).bit_generator
        port = _Stream(seed)
        assert [port.next64() for _ in range(5)] == [int(x) for x in bits.random_raw(5)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_phi_equals_numpy_reference(name):
    for n, size in ((4, 16), (6, 48)):
        chart = TorusChart(n, (size, size))
        for seed in (0, 7, 12, 2**40 + 3):
            assert np.array_equal(preset_phi(chart, name, seed=seed),
                                  numpy_preset_phi(chart, name, seed))


@pytest.mark.parametrize("size", [16, 18, 30, 64, 136, 192, 512])
def test_preset_phi_equals_meshgrid_form(size):
    # the sum of amp c cos(k1 X1 + k2 X2 + theta) on whole coordinate
    # fields, which preset_phi forms from the axes' coordinate vectors
    chart = TorusChart(6, (size, size))
    for name in ("trig1", "trig2", "trig3"):
        for seed in (1, 7, 11, 23):
            got = preset_phi(chart, name, seed=seed)
            assert got.tobytes() == numpy_preset_phi(chart, name, seed).tobytes(), (name, seed)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_negative_seed_rejected(name):
    # as numpy's SeedSequence does, also for the preset that draws nothing
    with pytest.raises(ValueError, match="non-negative"):
        preset_phi(TorusChart(4, (16, 16)), name, seed=-1)
