import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lim3d import DomainError, ShapeError, ssim
from lim3d.ssim import frame_stats, pair_score
from ssim_reference import ssim_direct, ssim_reference


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

    def test_pair_of_different_windows_rejected(self):
        img = np.arange(100, dtype=np.float64).reshape(10, 10)
        with pytest.raises(DomainError):
            pair_score(frame_stats(img, 4), frame_stats(img, 5))

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


@st.composite
def uint8_pairs(draw):
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 40)))
    grid = arrays(np.uint8, shape, elements=st.integers(0, 255))
    return draw(grid), draw(grid), draw(st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(uint8_pairs())
def test_ssim_bitwise_equals_direct_window_means(pair):
    a, b, window = pair
    assert ssim(a, b, window) == ssim_direct(a, b, window)
