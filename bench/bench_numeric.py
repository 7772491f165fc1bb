"""Micro-benchmarks of the numeric layers on a 128x128 torus at n = 4: the
stencil (also at 512x512, on both axes, there also of an operand given a
block of cells at a time), the curvature bundle's whole fields, one
operator family (built, and formed on every block of cells) and the
residue/volume polynomial checks; the n = 6 flat-base checks (gjms-flat and
q-flat, N = 1..3) on the 32x32 spectral chart; and on a 512x512 torus at
n = 6, the preset, the curvature bundle's whole fields, one block's window
of them and its D0(v2), the derivative word D0(v4) on every block, the
Laplacian (also at 1000x1000, where the blocks of cells cut rows), the
adjoint pairings, the pointwise identity checks at N = 2, decided one block
of cells at a time, alone and as the merged N = 2 part of a dimension's
pass, and one whole dimension.

    python -m pytest bench/bench_numeric.py -q

Each benchmark also asserts its result, so a fast wrong answer fails.
"""

import numpy as np
import pytest

from holoq.conformal import Cells, Window, blocks, curvature, holo_coeffs, laplacian
from holoq.families import _applied, family, family_poly
from holoq.grid import TorusChart, blocks as cell_blocks, d1
from holoq.holographic import (
    _adjoints,
    _dimension_reports,
    _example_2_3,
    _flat_reports,
    _master3,
    _pass,
    _poly,
    _q4_dual,
    poly_checks,
)
from holoq.lambda_algebra import LAMBDA
from holoq.presets import preset_phi

SIZE = 128


@pytest.fixture(scope="module")
def chart_phi():
    ch = TorusChart(4, (SIZE, SIZE))
    return ch, preset_phi(ch, "trig1", seed=7)


@pytest.fixture(scope="module")
def bundle(chart_phi):
    return curvature(*chart_phi)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("size", [SIZE, 512])
def test_d1(benchmark, size, axis):
    # axis 1 also re-evaluates the four wrap columns
    ch = TorusChart(4, (size, size))
    phi = preset_phi(ch, "trig1", seed=7)
    out = benchmark(d1, ch, phi, axis)
    assert out.shape == phi.shape and np.all(np.isfinite(out))


@pytest.mark.parametrize("axis", [0, 1])
def test_d1_function_operand_512(benchmark, axis):
    # the operand read on each output block's rows and two more each side,
    # as the operators read their partials, fluxes and probes; here a slice
    # copied per call, so that the cost beside test_d1 is the reading alone
    ch = TorusChart(4, (512, 512))
    phi = preset_phi(ch, "trig1", seed=7)
    flat = phi.reshape(-1)
    out = benchmark(d1, ch, lambda cells: flat[cells].copy(), axis)
    assert out.tobytes() == d1(ch, phi, axis).tobytes()


def test_curvature(benchmark, chart_phi):
    # the bundle's six fields formed whole, from its blocks' windows, as a
    # first whole read forms them
    b = benchmark(lambda: curvature(*chart_phi).lap_v2)
    assert np.all(np.isfinite(b))


@pytest.fixture(scope="module")
def chart_phi_512():
    ch = TorusChart(6, (512, 512))
    return ch, preset_phi(ch, "trig1", seed=7)


@pytest.mark.parametrize("name", ["trig1", "trig3"])
def test_preset_phi_512(benchmark, name):
    # trig1's two modes lie along the axes, each a cosine of one coordinate
    # vector broadcast; trig3 has two diagonal modes, each formed in one
    # broadcast buffer
    ch = TorusChart(6, (512, 512))
    phi = benchmark(preset_phi, ch, name, 7)
    assert phi.shape == ch.shape and np.all(np.isfinite(phi)) and np.any(phi != 0.0)


def test_curvature_512(benchmark, chart_phi_512):
    b = curvature(*chart_phi_512)
    benchmark(lambda: curvature(*chart_phi_512).lap_v2)
    assert np.all(np.isfinite(b.J)) and np.all(np.isfinite(b.lap_v2))


@pytest.mark.parametrize("index", [0, 1])
def test_window_512(benchmark, chart_phi_512, index):
    # one block's window (32 rows and 4 more each side): J, P and
    # p_inactive, and the block's D0(v2), lap_v2, from v2 on them, as a
    # pass forms them once per block; block 0's rows wrap
    b = curvature(*chart_phi_512)
    cells = cell_blocks(b.phi.size)[index]
    lap_v2 = benchmark(lambda: Cells(b, cells, Window(b, cells)).lap_v2)
    assert lap_v2.tobytes() == b.lap_v2.reshape(-1)[cells].tobytes()


def test_block_word_512(benchmark, chart_phi_512):
    # D0(v4), the derivative word of T*_2(lam)(v4), on each of the 16
    # blocks of cells, from v4 on its window's rows; the windows are formed
    # first, and the word is not kept
    b = curvature(*chart_phi_512)
    cells = list(blocks(b))
    for c in cells:
        c.J
    words = benchmark(lambda: [_applied(c, ("D0", "v4"), {(): holo_coeffs(c, 0)})
                               for c in cells])
    want = laplacian(b, holo_coeffs(b, 2)).reshape(-1)
    assert len(cells) == 16
    assert [w.tobytes() for w in words] == [want[c.cells].tobytes() for c in cells]


@pytest.mark.parametrize("size", [512, 1000])
def test_laplacian(benchmark, size):
    # the operand's partials, the fluxes and their weight formed a block of
    # cells at a time, into the whole output; at 512^2 a block is 32 rows,
    # at 1000^2 the blocks cut rows
    ch = TorusChart(6, (size, size))
    b = curvature(ch, preset_phi(ch, "trig1", seed=7))
    f = -b.J / 2
    out = benchmark(laplacian, b, f)
    assert out.tobytes() == b.lap_v2.tobytes()


def test_adjoint_reports_512(benchmark, chart_phi_512):
    # <L f, g> and <f, L g> for the Laplacian and the Schouten divergence
    # form, and <f, g>, from one sweep over the blocks of cells
    b = curvature(*chart_phi_512)
    reports = benchmark(lambda: _pass(b, [_adjoints(b, 7)]))
    assert len(reports) == 2 and all(r.passed for r in reports)


def test_flat_checks_n6(benchmark):
    # the spectral chart's metric, P_2, P_4, P_6 on a field and Q_2, Q_4, Q_6
    reports = benchmark(_flat_reports, 6, "trig1", 7, None)
    assert len(reports) == 6 and all(r.passed for r in reports)


def test_family_poly_t4_on_one(benchmark, bundle):
    # T*_4(lam)(1), rebuilt each round: the bundle's families are cleared
    # first, and it caches the operator alone; D0(v2), the one derivative
    # word it reads, is each block's lap_v2
    def build():
        bundle.family_polys.clear()
        return family(bundle, 2, 0)

    op, den = benchmark(build)
    assert den == LAMBDA * (LAMBDA - 1) and list(bundle.family_polys) == [(2, 0)]


def test_family_poly_t4_on_one_formed(benchmark, bundle):
    # the numerator of the cached T*_4(lam)(1), formed on each block of
    # cells from D0(v2) and pointwise products, as the pointwise checks read it
    family(bundle, 2, 0)
    nums = benchmark(lambda: [family_poly(block, 2, 0)[0] for block in blocks(bundle)])
    assert all(len(num.coeffs) == 3 for num in nums)


def test_poly_checks(benchmark, bundle):
    # the T*_{2j} pairs are cached after the first round; this times the
    # lcm combination, the prefactor division, the Taylor shift and the checks
    reports = benchmark(poly_checks, bundle, 2)
    assert all(r.passed for r in reports)


def test_block_pass_512(benchmark, chart_phi_512):
    # master-3 and the residue/volume checks at N = 2 from the cached
    # families, in one pass as a dimension runs them: the cleared
    # polynomials of each block of cells are built and read, and only
    # their norms are kept
    b = curvature(*chart_phi_512)
    for j in (1, 2):
        family(b, j, 2 - j)
    reports = benchmark(lambda: _pass(b, [_master3(b, 2), _poly(b, 2)]))
    assert len(reports) == 5 and all(r.passed for r in reports)


def test_merged_pass_512(benchmark, chart_phi_512):
    # q4-dual, master-3, the residue/volume checks and Example 2.3 at N = 2,
    # as a dimension decides them: one pass over the blocks of cells, each
    # block forming its window and its families once
    b = curvature(*chart_phi_512)
    reports = benchmark(lambda: _pass(b, [_q4_dual(b), _master3(b, 2), _poly(b, 2),
                                          _example_2_3(b)]))
    assert len(reports) == 8 and all(r.passed for r in reports)


def test_dimension_512(benchmark):
    # one n = 6 dimension of numeric_suite at 512^2: the flat-base checks on
    # the spectral chart, the preset, and the run grid's one pass
    reports = benchmark(_dimension_reports, 6, 512, "trig1", 7, None)
    assert len(reports) == 22 and all(r.passed for r in reports)
