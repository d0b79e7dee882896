import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lim3d import ShapeError, ssim
from lim3d.ssim import frame_stats
from ssim_reference import ssim_direct, ssim_reference, window_means_direct


class TestSsim:
    def test_self_similarity_is_exactly_one(self, rng):
        img = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        assert ssim(img, img) == 1.0

    def test_constant_offset_strictly_below_one(self):
        img = np.full((12, 12), 100.0)
        assert ssim(img, img + 10.0) < 1.0

    def test_matches_reference_on_fixed_pair(self, rng):
        a = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        b = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)

    def test_matches_reference_many_pairs(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(8, 25)), int(rng.integers(8, 33))
            a = rng.integers(0, 256, size=(h, w)).astype(np.float64)
            b = np.clip(a + rng.normal(scale=30.0, size=(h, w)), 0, 255)
            assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (0, 0)])
    def test_empty_grid_raises(self, shape):
        with pytest.raises(ShapeError):
            ssim(np.zeros(shape), np.zeros(shape))

    def test_statistics_keep_the_frame_not_a_float_copy(self, rng):
        img = rng.integers(0, 256, size=(10, 12)).astype(np.uint8)
        assert frame_stats(img).x is img

    def test_small_images_clip_window(self):
        a = np.arange(16, dtype=np.float64).reshape(4, 4)
        assert ssim(a, a) == 1.0

    def test_value_range(self, rng):
        for _ in range(10):
            a = rng.integers(0, 256, size=(10, 10)).astype(float)
            b = rng.integers(0, 256, size=(10, 10)).astype(float)
            assert -1.0 <= ssim(a, b) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(arrays(np.uint8, (9, 12), elements=st.integers(0, 255)),
       arrays(np.uint8, (9, 12), elements=st.integers(0, 255)))
def test_ssim_symmetric_and_self_unit(a, b):
    assert ssim(a, a) == 1.0
    assert ssim(a, b) == ssim(b, a)


# Grids whose window sums take each path: uint8, int8 (negative values too)
# and bool sum in int32; uint16 and integer-valued float64 sum in float64,
# where the window sums of these magnitudes are exact as well.
GRID_ELEMENTS = {
    np.uint8: st.integers(0, 255),
    np.int8: st.integers(-128, 127),
    np.uint16: st.integers(0, 65535),
    np.bool_: st.booleans(),
    np.float64: st.integers(-(2**20), 2**20).map(float),
}


@st.composite
def integer_grid_pairs(draw):
    """Grids whose smaller side runs from 1 to past 8, so the window
    ``min(8, h, w)`` takes every width from 1 to 8."""
    dtype = draw(st.sampled_from(list(GRID_ELEMENTS)))
    short = draw(st.integers(1, 12))
    shape = (short, draw(st.integers(short, 40)))
    if draw(st.booleans()):
        shape = shape[::-1]
    grid = arrays(dtype, shape, elements=GRID_ELEMENTS[dtype])
    return draw(grid), draw(grid)


@settings(max_examples=100, deadline=None)
@given(integer_grid_pairs())
def test_ssim_bitwise_equals_direct_window_means(pair):
    a, b = pair
    assert ssim(a, b) == ssim_direct(a, b)


def test_window_statistics_exact_on_a_long_uint16_grid(rng):
    """Window sums are exact at any grid size: on a grid whose whole sum of
    squares passes 2**53, the last windows still equal direct averages."""
    x = rng.integers(60000, 65536, size=(8, 400_000)).astype(np.uint16)
    stats = frame_stats(x)
    tail = x[:, -57:].astype(np.float64)
    mu = window_means_direct(tail, 8)
    var = window_means_direct(tail * tail, 8) - mu * mu
    assert stats.mu[:, -50:].tobytes() == mu.tobytes()
    assert stats.var[:, -50:].tobytes() == var.tobytes()


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_wide_integers_sum_without_wraparound(rng, dtype):
    """Squares of these dtypes' extremes overflow every integer sum, so the
    windows are summed in float64 and still match the scalar oracle."""
    info = np.iinfo(dtype)
    extremes = np.array([info.min, info.max, info.max - 1, info.min + 1], dtype=dtype)
    a, b = rng.choice(extremes, size=(2, 10, 14))
    assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)
    assert ssim(a, a) == 1.0
