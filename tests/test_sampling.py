import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lim3d import (DomainError, FormatError, SceneSpec, StrfdConfig, calibrate_beta,
                   passive_baselines, plan, range_to_grayscale, supervisor,
                   synth_sequence)
from lim3d.sampling import frame_redundancies, load_plan, save_plan

BETA_GRID = (2.28, 4.00, 5.72, 7.45)


def gray_frames(spec, n_frames, seed):
    frames = synth_sequence(spec, n_frames, seed)
    peak = max(float(ri.values.max()) for _, ri in frames) or 1.0
    return [range_to_grayscale(ri, peak).astype(np.float64) for _, ri in frames]


def two_regime_frames(n=16, seed=0):
    """First half static, second half moving, aligned to subsets of 8."""
    spec = SceneSpec(n_points=300, segment_length=8, segment_speeds=(0.0, 1.0))
    return gray_frames(spec, n, seed)


class TestSupervisor:
    def test_zero_redundancy_full_sampling(self):
        for beta in (0.0, 1.0, 7.45):
            assert supervisor(0.0, beta) == 1.0

    def test_beta_zero_always_one(self):
        for x in np.linspace(0, 1, 11):
            assert supervisor(float(x), 0.0) == 1.0

    def test_high_beta_full_redundancy(self):
        assert supervisor(1.0, 7.45) == pytest.approx(math.exp(-7.45), rel=1e-12)
        assert supervisor(1.0, 7.45) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            supervisor(1.5, 1.0)
        with pytest.raises(DomainError):
            supervisor(-0.1, 1.0)
        with pytest.raises(DomainError):
            supervisor(0.5, -1.0)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing(self, x1, x2, beta):
        lo, hi = sorted((x1, x2))
        assert supervisor(hi, beta) <= supervisor(lo, beta)


class TestRedundancy:
    def test_identical_frames_full_redundancy(self):
        img = np.full((8, 8), 50.0)
        psi = frame_redundancies([img, img.copy(), img.copy()])
        np.testing.assert_array_equal(psi, 1.0)

    def test_last_frame_reuses_predecessor_pair(self, rng):
        a = rng.integers(0, 256, (8, 8)).astype(float)
        b = rng.integers(0, 256, (8, 8)).astype(float)
        psi = frame_redundancies([a, b])
        assert psi[0] == psi[1]

    def test_thread_pool_matches_serial_bitwise(self):
        frames = two_regime_frames()
        np.testing.assert_array_equal(frame_redundancies(frames, n_threads=2),
                                      frame_redundancies(frames, n_threads=1))

    def test_single_frame_scores_zero(self):
        assert frame_redundancies([np.zeros((8, 8))]).tolist() == [0.0]


class TestPlan:
    def test_all_identical_high_beta_one_per_subset(self):
        img = np.full((16, 16), 80.0)
        frames = [img.copy() for _ in range(20)]
        cfg = StrfdConfig(subset_size=10, beta=7.45)
        result = plan([frames], cfg)
        # redundancy 1 everywhere: ceil(10 * exp(-7.45)) = 1 frame per subset
        assert len(result.entries[0]) == 2

    def test_beta_zero_selects_everything(self):
        frames = two_regime_frames()
        cfg = StrfdConfig(subset_size=8, beta=0.0)
        assert plan([frames], cfg).entries[0] == list(range(len(frames)))

    def test_moving_subset_gets_at_least_static(self):
        frames = two_regime_frames()
        for beta in BETA_GRID:
            result = plan([frames], StrfdConfig(subset_size=8, beta=beta))
            chosen = result.entries[0]
            static = [i for i in chosen if i < 8]
            moving = [i for i in chosen if i >= 8]
            assert len(moving) >= len(static)

    def test_plan_deterministic(self):
        frames = two_regime_frames()
        cfg = StrfdConfig(subset_size=8, beta=4.0)
        assert plan([frames], cfg) == plan([frames], cfg)

    def test_monotone_in_beta(self, rng):
        frames = two_regime_frames()
        counts = [plan([frames], StrfdConfig(subset_size=8, beta=b)).total()
                  for b in (0.0,) + BETA_GRID]
        ordered = sorted(((0.0,) + BETA_GRID), key=lambda b: b)
        by_beta = dict(zip((0.0,) + BETA_GRID, counts))
        seq = [by_beta[b] for b in ordered]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_selected_count_bounds(self):
        frames = two_regime_frames()
        for beta in (0.0, 1.0, 7.45):
            result = plan([frames], StrfdConfig(subset_size=8, beta=beta))
            chosen = result.entries[0]
            for start in range(0, 16, 8):
                k = sum(1 for i in chosen if start <= i < start + 8)
                assert 1 <= k <= 8

    def test_ragged_tail_subset(self):
        img = np.full((8, 8), 10.0)
        frames = [img.copy() for _ in range(13)]
        result = plan([frames], StrfdConfig(subset_size=5, beta=7.45))
        assert all(0 <= i < 13 for i in result.entries[0])
        tail = [i for i in result.entries[0] if i >= 10]
        assert 1 <= len(tail) <= 3


class TestPassiveBaselines:
    def test_uniform_even_spacing(self):
        assert passive_baselines(10, 0.5, "uniform").entries[0] == [0, 2, 4, 6, 8]

    def test_random_deterministic(self):
        a = passive_baselines(100, 0.1, "random", seed=5)
        b = passive_baselines(100, 0.1, "random", seed=5)
        assert a == b
        assert len(a.entries[0]) == 10

    def test_fraction_one_all_indices(self):
        assert passive_baselines(7, 1.0, "uniform").entries[0] == list(range(7))

    def test_count_is_ceiling(self):
        assert len(passive_baselines(10, 0.25, "uniform").entries[0]) == 3
        assert len(passive_baselines(10, 0.21, "random", seed=0).entries[0]) == 3

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            passive_baselines(10, 0.0, "uniform")


class TestCalibration:
    def test_hits_target_fraction(self):
        spec = SceneSpec(n_points=250, segment_length=10,
                         segment_speeds=(0.0, 0.05, 0.0, 0.1))
        frames = gray_frames(spec, 100, seed=2)
        cfg = StrfdConfig(subset_size=20, beta=0.0)
        beta, result = calibrate_beta([frames], cfg, target_fraction=0.10)
        assert abs(result.total() - 10) <= 1
        assert beta > 0

    def test_fraction_one_returns_beta_zero(self):
        frames = two_regime_frames()
        beta, result = calibrate_beta([frames], StrfdConfig(subset_size=8), 1.0)
        assert beta == 0.0
        assert result.total() == len(frames)
        assert result == plan([frames], StrfdConfig(subset_size=8))


class TestPlanIO:
    def test_save_load_roundtrip(self, tmp_path):
        frames = two_regime_frames()
        result = plan([frames], StrfdConfig(subset_size=8, beta=4.0))
        save_plan(tmp_path / "plan.json", result, keys={0: "00"})
        loaded = load_plan(tmp_path / "plan.json")
        assert loaded == {"00": result.entries[0]}

    @pytest.mark.parametrize("text", [
        '{"00": [1, 2',           # invalid JSON
        '[[1, 2]]',               # top level is a list, not an object
        '{"00": 3}',              # an entry that is not a list
        '{"00": [1, "two"]}',     # a non-integer index
        '{"00": [1.5]}',          # a fractional index
    ], ids=["invalid-json", "top-level-list", "non-list-entry", "string-index",
            "float-index"])
    def test_malformed_plan_raises_format_error(self, tmp_path, text):
        (tmp_path / "plan.json").write_text(text)
        with pytest.raises(FormatError):
            load_plan(tmp_path / "plan.json")
