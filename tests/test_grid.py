"""Stencil and spectral derivative, preset, and field-file tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoq import grid
from holoq.grid import TorusChart, d1, load_field, partials, save_field
from holoq.presets import preset_phi
from helpers import divergence, mesh


def chart(n=4, size=64):
    return TorusChart(n, (size, size))


def d1_roll(chart, f, axis):
    """The stencil as whole-array np.roll shifts: the reference for d1's bits."""
    h = chart.spacing(axis)

    def shift(s):
        return np.roll(f, -s, axis=axis)

    return (-shift(2) + 8.0 * shift(1) - 8.0 * shift(-1) + shift(-2)) / (12.0 * h)


def same_bits(a, b):
    """a and b are bitwise equal, except that a NaN matches any NaN. The sign
    of NaN + (-NaN) is unspecified (IEEE 754), and numpy's add gives either
    one depending on where the element falls in its vector loop, so not even
    the np.roll form fixes it."""
    nan = np.isnan(b)
    return np.array_equal(np.isnan(a), nan) and a[~nan].tobytes() == b[~nan].tobytes()


@st.composite
def stencil_inputs(draw):
    """A field of 8..70 points per axis, C-ordered, strided (a 2:1
    subsample such as phi[::2, ::2]) or transposed, with up to four values
    replaced by +-inf or NaN."""
    rows, cols = draw(st.integers(8, 70)), draw(st.integers(8, 70))
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "strided":
        f = rng.standard_normal((2 * rows, 2 * cols))[::2, ::2]
    elif layout == "transposed":
        f = rng.standard_normal((cols, rows)).T
    else:
        f = rng.standard_normal((rows, cols))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        f[i, j] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return f


class TestStencils:
    def test_d1_antisymmetric_exactly(self):
        ch = chart()
        rng = np.random.default_rng(3)
        u = rng.standard_normal(ch.shape)
        v = rng.standard_normal(ch.shape)
        for axis in range(2):
            res = np.sum(d1(ch, u, axis) * v) + np.sum(u * d1(ch, v, axis))
            assert abs(res) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(f=stencil_inputs(), block=st.sampled_from([5, 64, grid.BLOCK]))
    def test_d1_bitwise_equal_to_roll_form(self, f, block):
        # blocks of 5 and 64 values put block edges inside rows and on the
        # wrap columns; the default block covers every field drawn here
        ch = TorusChart(4, f.shape)
        default, grid.BLOCK = grid.BLOCK, block
        try:
            with np.errstate(invalid="ignore"):  # inf - inf is NaN
                for axis in range(2):
                    assert same_bits(d1(ch, f, axis), d1_roll(ch, f, axis)), axis
        finally:
            grid.BLOCK = default

    @pytest.mark.parametrize("shape", [(512, 512), (300, 257), (8, 5000)])
    def test_d1_bitwise_across_default_blocks(self, shape):
        ch = TorusChart(4, shape)
        f = np.random.default_rng(4).standard_normal(shape)
        for axis in range(2):
            assert d1(ch, f, axis).tobytes() == d1_roll(ch, f, axis).tobytes(), axis

    @settings(max_examples=40, deadline=None)
    @given(f=stencil_inputs(), block=st.sampled_from([5, 64, grid.BLOCK]))
    def test_divergence_bitwise_equal_to_roll_sum(self, f, block):
        # divergence fills its output a range of blocks at a time, the
        # first partial copied in and the second added; blocks of 5 and 64
        # values give ranges of at most 128 cells, which cut rows and the
        # wrap columns
        ch = TorusChart(4, f.shape)
        g = np.random.default_rng(f.size).standard_normal(f.shape)
        g[0, -1], g[-1, 1] = np.nan, -np.inf
        f_cells, g_cells = by_cells(f), by_cells(g)
        default, grid.BLOCK = grid.BLOCK, block
        try:
            with np.errstate(invalid="ignore"):
                want = d1_roll(ch, f, 0) + d1_roll(ch, g, 1)
                got = divergence(ch, lambda cells: (f_cells(cells), g_cells(cells)))
            assert same_bits(got, want)
        finally:
            grid.BLOCK = default

    def test_d1_fourth_order(self):
        errs = []
        for size in (32, 64):
            ch = chart(size=size)
            x1, _ = mesh(ch)
            errs.append(np.max(np.abs(d1(ch, np.sin(3 * x1), 0) - 3 * np.cos(3 * x1))))
        ratio = errs[0] / errs[1]
        assert 12 < ratio < 20

    def test_cross_derivatives_commute(self):
        ch = chart(size=32)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(ch.shape)
        diff = d1(ch, d1(ch, u, 0), 1) - d1(ch, d1(ch, u, 1), 0)
        assert np.max(np.abs(diff)) < 1e-10

    def test_hessian_from_block_partials(self):
        # the Hessian as the bundle forms it, a block of rows at a time from
        # the gradient pair's partials there, against nested whole d1 calls
        ch = chart(size=32)
        u = np.random.default_rng(6).standard_normal(ch.shape)
        grad = (d1(ch, u, 0), d1(ch, u, 1))
        want = [d1(ch, grad[0], 0), d1(ch, grad[1], 0), d1(ch, grad[1], 1)]

        def pair(cells):
            return tuple(partials(ch, u, cells))

        for cells in grid.blocks(32 * 32) + [slice(37, 500), slice(500, 1024)]:
            got = partials(ch, pair, cells, ((0, None), (1, None), (0, 0), (1, 0), (1, 1)))
            for g, w in zip(got, list(grad) + want):
                assert g.tobytes() == w.reshape(-1)[cells].tobytes(), cells

    def test_chart_validation(self):
        with pytest.raises(ValueError):
            TorusChart(2, (16, 16))
        with pytest.raises(ValueError):
            TorusChart(4, (4, 16))
        with pytest.raises(ValueError):
            TorusChart(4, (16, 16), "chebyshev")


class TestAddedIntoOut:
    """divergence adds its second partial into the output its first was
    filled in, against the whole expression d1(F0, 0) + d1(F1, 1): at 16^2
    one block covers the field, at 192^2 two blocks split it."""

    @pytest.mark.parametrize("derivative", ["stencil", "spectral"])
    @pytest.mark.parametrize("size", [16, 192])
    def test_bits_of_the_sum(self, derivative, size):
        ch = TorusChart(5, (size, size), derivative)
        rng = np.random.default_rng(size)
        f0, f1 = rng.standard_normal((2, size, size))
        # NaN cells inside, on a wrap row and on a wrap column; the Fourier
        # d1 spreads one over its whole line
        f0[7, size - 2] = f0[1, 5] = np.nan
        if derivative == "stencil":
            f1[size // 2, 3] = f1[size - 1, size // 3] = f1[4, 1] = np.nan
        want = d1(ch, f0, 0) + d1(ch, f1, 1)
        got = divergence(ch, lambda cells: (f0.reshape(-1)[cells], f1.reshape(-1)[cells]))
        assert same_bits(got, want)
        assert 0 < np.isnan(got).sum() < size * size / 4


def by_cells(f, calls=None):
    """f as a function of a flat range of cells, a fresh array each call;
    calls, when given, records the ranges."""
    flat = np.ascontiguousarray(f).reshape(-1)

    def read(cells):
        if calls is not None:
            calls.append((cells.start, cells.stop))
        return flat[cells].copy()

    return read


class TestFunctionOperands:
    """d1 and partials on an operand given as a function of a flat range of
    cells, read on the output block's whole rows widened by two and
    wrapping: the bits of the whole-field d1, which d1_roll pins."""

    SHAPES = [(64, 64), (48, 80), (136, 136), (192, 192), (8, 5000), (300, 257)]

    @pytest.mark.parametrize("block", [7, 1001, 1 << 14])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_same_bits_as_the_whole_field(self, shape, block, monkeypatch):
        # a block of 7 or 1,001 cells is one row, or a few rows, of most
        # of these grids; the default block covers the smaller grids whole
        monkeypatch.setattr(grid, "BLOCK", block)
        ch = TorusChart(4, shape)
        f = np.random.default_rng(shape[0]).standard_normal(shape)
        f[shape[0] // 2, 3] = f[shape[0] - 1, shape[1] // 3] = f[1, shape[1] - 2] = np.nan
        calls = []
        for axis in range(2):
            want = d1(ch, f, axis)
            assert same_bits(want, d1_roll(ch, f, axis))
            assert same_bits(d1(ch, by_cells(f, calls), axis), want), axis
        # read only in whole rows, none outside the grid
        cols = shape[1]
        assert all(a % cols == 0 == b % cols and 0 <= a < b <= f.size for a, b in calls)

    @pytest.mark.parametrize("shape", [(64, 64), (48, 80), (136, 136)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_partials_on_ranges_not_aligned_with_rows(self, shape):
        ch = TorusChart(4, shape)
        f = np.random.default_rng(5).standard_normal(shape)
        f[7, 0] = np.nan
        want = [d1(ch, f, axis).reshape(-1) for axis in range(2)]
        size = f.size
        ranges = grid.blocks(size) + [slice(0, size), slice(1, 2), slice(5, 1006),
                                      slice(size - 7, size), slice(shape[1] - 1, 3 * shape[1] + 2)]
        for operand in (f, by_cells(f)):
            for cells in ranges:
                got = partials(ch, operand, cells)
                for axis in range(2):
                    assert same_bits(got[axis], want[axis][cells]), (cells, axis)
                (same,) = partials(ch, operand, cells, ((0, None),))
                assert same_bits(same, f.reshape(-1)[cells])

    @pytest.mark.parametrize("shape", [(64, 64), (48, 80), (192, 192)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_added_into_out(self, shape):
        # divergence's second partial, of a function of cells, added into
        # its first
        ch = TorusChart(4, shape)
        rng = np.random.default_rng(9)
        f0, f1 = rng.standard_normal((2, *shape))
        f0[0, -1], f1[-1, 1] = np.nan, -np.inf
        f0_cells, f1_cells = by_cells(f0), by_cells(f1)
        with np.errstate(invalid="ignore"):
            want = d1(ch, f0, 0) + d1(ch, f1, 1)
            got = divergence(ch, lambda cells: (f0_cells(cells), f1_cells(cells)))
        assert same_bits(got, want)

    def test_divergence_is_the_sum_of_its_two_d1(self):
        ch = TorusChart(4, (136, 136))
        rng = np.random.default_rng(10)
        f0, f1 = rng.standard_normal((2, *ch.shape))
        f0[3, 5] = f1[-1, -2] = np.nan
        want = d1(ch, f0, 0) + d1(ch, f1, 1)
        pair = lambda cells: (f0.reshape(-1)[cells].copy(), f1.reshape(-1)[cells].copy())  # noqa: E731
        assert same_bits(divergence(ch, pair), want)

    @pytest.mark.parametrize("shape", [(32, 32), (24, 15)])
    def test_spectral_chart(self, shape):
        # the operand is formed whole, with one call, and transformed
        ch = TorusChart(4, shape, "spectral")
        f = np.random.default_rng(11).standard_normal(shape)
        calls = []
        for axis in range(2):
            assert d1(ch, by_cells(f, calls), axis).tobytes() == d1(ch, f, axis).tobytes()
            got = partials(ch, by_cells(f), slice(3, 40))
            assert got[axis].tobytes() == d1(ch, f, axis).reshape(-1)[3:40].tobytes()
        assert calls == [(0, f.size)] * 2


class TestSpectral:
    def test_wavenumbers(self):
        assert grid.wavenumbers(8).tolist() == [0, 1, 2, 3, 0, -3, -2, -1]
        assert grid.wavenumbers(9).tolist() == [0, 1, 2, 3, 4, -4, -3, -2, -1]

    @pytest.mark.parametrize("shape", [(32, 32), (24, 15)])
    def test_d1_antisymmetric(self, shape):
        # the matrix of d1 along each axis, against its transpose
        ch = TorusChart(4, shape, "spectral")
        basis = np.eye(ch.shape[0] * ch.shape[1]).reshape(-1, *ch.shape)
        for axis in range(2):
            m = np.array([d1(ch, e, axis).ravel() for e in basis])
            assert np.max(np.abs(m + m.T)) < 1e-14 * ch.shape[axis]

    def test_d1_exact_below_nyquist(self):
        # every mode below the Nyquist one is differentiated to rounding;
        # the Nyquist mode itself is zeroed
        ch = TorusChart(4, (16, 16), "spectral")
        x1, x2 = mesh(ch)
        f = np.sin(7 * x1 + 1.0) * np.cos(5 * x2)
        assert np.max(np.abs(d1(ch, f, 0) - 7 * np.cos(7 * x1 + 1.0) * np.cos(5 * x2))) < 1e-12
        assert np.max(np.abs(d1(ch, np.cos(8 * x2), 1))) < 1e-12

    def test_stencil_is_the_default(self):
        ch = chart(size=16)
        f = np.random.default_rng(7).standard_normal(ch.shape)
        assert ch.derivative == "stencil"
        assert d1(ch, f, 0).tobytes() == d1_roll(ch, f, 0).tobytes()


class TestPresets:
    def test_names(self):
        for name in ("flat", "trig1", "trig2", "trig3"):
            assert preset_phi(chart(), name, seed=1).shape == chart().shape

    def test_flat_is_zero(self):
        assert np.all(preset_phi(chart(), "flat", seed=1) == 0.0)

    def test_deterministic_in_seed(self):
        ch = chart()
        a = preset_phi(ch, "trig2", seed=11)
        b = preset_phi(ch, "trig2", seed=11)
        c = preset_phi(ch, "trig2", seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_refines_same_function(self):
        coarse = preset_phi(chart(size=32), "trig1", seed=7)
        fine = preset_phi(chart(size=64), "trig1", seed=7)
        assert np.allclose(fine[::2, ::2], coarse, rtol=0, atol=1e-13)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset_phi(chart(), "ripple", seed=1)


class TestFieldFiles:
    def test_round_trip(self, tmp_path):
        ch = chart(n=6, size=16)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(ch.shape)
        path = tmp_path / "field.hqf"
        save_field(path, ch, f)
        ch2, g = load_field(path)
        assert ch2 == ch
        assert np.array_equal(f, g)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.hqf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_field(path)

    def test_shape_mismatch(self, tmp_path):
        ch = chart(size=16)
        with pytest.raises(ValueError):
            save_field(tmp_path / "f.hqf", ch, np.zeros((8, 8)))


# np.sum's pairwise summation splits these sizes down to leaves of 128
# values: none, once, at a multiple of 8, and over many levels.
SUM_SIZES = (5, 128, 129, 1000, 18496, 19500, 36864, 262144, 300001)


def numpy_split(size, leaf, start=0):
    """The ranges of size values from start that numpy's pairwise summation
    (pairwise_sum in numpy's loops_utils) splits them into, down to the
    first ranges of at most leaf values: the first n // 2 rounded down to a
    multiple of 8, and the rest."""
    if size <= leaf:
        return [slice(start, start + size)]
    half = size // 2 - size // 2 % 8
    return numpy_split(half, leaf, start) + numpy_split(size - half, leaf, start + half)


class TestPairwiseSums:
    """grid.blocks cuts a grid's cells where numpy's pairwise summation
    splits them, so sums formed a block at a time combine (pairwise_sums)
    with np.sum's bits over the whole range, for any BLOCK."""

    @pytest.mark.parametrize("block", [7, 1000, 1 << 14])
    def test_blocks_tile_the_cells_where_numpy_splits(self, monkeypatch, block):
        monkeypatch.setattr(grid, "BLOCK", block)
        for size in SUM_SIZES:
            leaves = grid.blocks(size)
            assert leaves[0].start == 0 and leaves[-1].stop == size
            assert all(a.stop == c.start for a, c in zip(leaves, leaves[1:]))
            assert all(c.stop - c.start <= max(block, 128) for c in leaves)
            assert leaves == numpy_split(size, max(block, 128)), size
            assert grid.blocks(size, spectral=True) == [slice(0, size)]

    @pytest.mark.parametrize("block", [7, 1000, 1 << 14])
    def test_np_sum_bits(self, monkeypatch, block):
        monkeypatch.setattr(grid, "BLOCK", block)
        rng = np.random.default_rng(4)
        for size in SUM_SIZES:
            x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
            want = [float(np.sum(x)).hex(), float(np.sum(-x)).hex()]
            # the leaves of the stencil chart, and the spectral chart's one
            for leaves in (grid.blocks(size), grid.blocks(size, spectral=True)):
                parts = [(c, [np.sum(x[c]), np.sum(-x[c])]) for c in leaves]
                assert [float(s).hex() for s in grid.pairwise_sums(parts)] == want, size
