import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lim3d import (DomainError, FormatError, SceneSpec, ShapeError, ValidationError,
                   calibrate_beta, passive_baselines, plan, ranges_to_grayscale, ssim,
                   supervisor, synth_sequence)
from lim3d.sampling import (CALIBRATION_STEPS, MAX_BETA, SamplingPlan, frame_redundancies,
                            load_plan, plan_from_redundancies, save_plan)

BETA_GRID = (2.28, 4.00, 5.72, 7.45)
# The package's `ssim` attribute is the function; this is its module.
SSIM_MODULE = importlib.import_module("lim3d.ssim")


def gray_frames(spec, n_frames, seed):
    return ranges_to_grayscale([ri for _, ri in synth_sequence(spec, n_frames, seed)])


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

    def test_single_frame_scores_zero(self):
        assert frame_redundancies([np.zeros((8, 8))]).tolist() == [0.0]

    # `n_threads` is accepted and ignored, because the benchmark's warm-up
    # still passes it; every value must give the serial scores.
    @pytest.mark.parametrize("n_threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_matches_pairwise_ssim_bitwise(self, rng, n_threads, p, dtype):
        if dtype == np.uint8:
            frames = [rng.integers(0, 256, (12, 20)).astype(np.uint8) for _ in range(p)]
        else:
            frames = [rng.uniform(0.0, 255.0, (12, 20)) for _ in range(p)]
        scores = [ssim(frames[j], frames[j + 1]) for j in range(p - 1)]
        want = np.clip(scores + scores[-1:], 0.0, 1.0) if p > 1 else np.zeros(1)
        np.testing.assert_array_equal(frame_redundancies(frames, n_threads=n_threads), want)

    def test_each_frame_statistics_taken_once(self, monkeypatch, rng):
        p = 9
        frames = [rng.integers(0, 256, (12, 20)).astype(np.uint8) for _ in range(p)]
        calls = []
        window_means = SSIM_MODULE._window_means

        def counting(*args):
            calls.append(1)
            return window_means(*args)

        monkeypatch.setattr(SSIM_MODULE, "_window_means", counting)
        frame_redundancies(frames)
        # Two tables per frame (means, means of squares), one per pair (a * b).
        assert len(calls) == 3 * p - 1

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("bad", [np.zeros((8, 9)), np.zeros(64), np.zeros((0, 8))],
                             ids=["other-shape", "1-D", "empty"])
    def test_bad_frame_raises_shape_error(self, n_threads, bad):
        frames = [np.zeros((8, 8))] * 4 + [bad] + [np.zeros((8, 8))] * 3
        with pytest.raises(ShapeError):
            frame_redundancies(frames, n_threads=n_threads)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            frame_redundancies([])


class TestPlan:
    def test_repeated_index_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            SamplingPlan(entries={0: [1, 3, 1]})

    def test_all_identical_high_beta_one_per_subset(self):
        img = np.full((16, 16), 80.0)
        frames = [img.copy() for _ in range(20)]
        result = plan([frames], subset_size=10, beta=7.45)
        # redundancy 1 everywhere: ceil(10 * exp(-7.45)) = 1 frame per subset
        assert len(result.entries[0]) == 2

    def test_fully_redundant_subset_keeps_one_frame_up_to_max_beta(self):
        """exp(-beta) underflows to 0 above beta ~745; a subset still keeps
        its one frame, here the first (ties go to the lower index)."""
        for beta in (*np.geomspace(2.1, 1024.0, 40), 745.2):
            result = plan_from_redundancies([np.ones(8), np.ones(3)], 8, float(beta))
            assert result.entries == {0: [0], 1: [0]}, beta

    def test_beta_zero_selects_everything(self):
        frames = two_regime_frames()
        assert plan([frames], 8, 0.0).entries[0] == list(range(len(frames)))

    def test_moving_subset_gets_at_least_static(self):
        frames = two_regime_frames()
        for beta in BETA_GRID:
            result = plan([frames], 8, beta)
            chosen = result.entries[0]
            static = [i for i in chosen if i < 8]
            moving = [i for i in chosen if i >= 8]
            assert len(moving) >= len(static)

    def test_plan_deterministic(self):
        frames = two_regime_frames()
        assert plan([frames], 8, 4.0) == plan([frames], 8, 4.0)

    def test_monotone_in_beta(self, rng):
        frames = two_regime_frames()
        counts = [plan([frames], 8, b).total()
                  for b in (0.0,) + BETA_GRID]
        ordered = sorted(((0.0,) + BETA_GRID), key=lambda b: b)
        by_beta = dict(zip((0.0,) + BETA_GRID, counts))
        seq = [by_beta[b] for b in ordered]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_selected_count_bounds(self):
        frames = two_regime_frames()
        for beta in (0.0, 1.0, 7.45):
            result = plan([frames], 8, beta)
            chosen = result.entries[0]
            for start in range(0, 16, 8):
                k = sum(1 for i in chosen if start <= i < start + 8)
                assert 1 <= k <= 8

    def test_ragged_tail_subset(self):
        img = np.full((8, 8), 10.0)
        frames = [img.copy() for _ in range(13)]
        result = plan([frames], 5, 7.45)
        assert all(0 <= i < 13 for i in result.entries[0])
        tail = [i for i in result.entries[0] if i >= 10]
        assert 1 <= len(tail) <= 3

    @pytest.mark.parametrize("call", [
        lambda seqs: plan(seqs, 0, 1.0),
        lambda seqs: plan(seqs, 8, -1.0),
        lambda seqs: calibrate_beta(seqs, 0, 0.5),
        lambda seqs: calibrate_beta(seqs, 8, 0.0),
        lambda seqs: calibrate_beta(seqs, 8, 1.5),
    ], ids=["plan-subset-0", "plan-beta-negative", "calibrate-subset-0", "calibrate-target-0",
            "calibrate-target-above-1"])
    def test_bad_settings_rejected_before_ssim(self, monkeypatch, call):
        monkeypatch.setattr("lim3d.sampling.frame_stats", lambda *a: pytest.fail("ssim ran"))
        monkeypatch.setattr("lim3d.sampling.pair_score", lambda *a: pytest.fail("ssim ran"))
        with pytest.raises(DomainError):
            call([[np.zeros((8, 8))] * 4])


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

    @pytest.mark.parametrize("n_frames, mode, match", [(0, "uniform", "n_frames"),
                                                       (10, "strided", "mode")])
    def test_no_frames_or_unknown_mode_rejected(self, n_frames, mode, match):
        with pytest.raises(DomainError, match=match):
            passive_baselines(n_frames, 0.5, mode)


class TestCalibration:
    def test_hits_target_fraction(self):
        spec = SceneSpec(n_points=250, segment_length=10,
                         segment_speeds=(0.0, 0.05, 0.0, 0.1))
        frames = gray_frames(spec, 100, seed=2)
        beta, result = calibrate_beta([frames], 20, target_fraction=0.10)
        assert abs(result.total() - 10) <= 1
        assert beta > 0

    @pytest.mark.parametrize("target", [0.01, 0.05])
    def test_static_sequence_keeps_a_frame_per_subset(self, target):
        img = np.full((8, 8), 100.0)
        _, result = calibrate_beta([[img.copy() for _ in range(24)]], 8, target)
        assert result.entries == {0: [0, 8, 16]}

    def test_fraction_one_returns_beta_zero(self):
        frames = two_regime_frames()
        beta, result = calibrate_beta([frames], 8, 1.0)
        assert beta == 0.0
        assert result.total() == len(frames)
        assert result == plan([frames], 8, 0.0)


class TestOnePass:
    """A generator of sequences gives the result of the list it yields."""

    SEQUENCES = [two_regime_frames(n, seed) for n, seed in ((16, 0), (11, 1), (19, 2))]

    @pytest.mark.parametrize("beta", [0.0, 4.0, 7.45])
    def test_plan(self, beta):
        assert plan(iter(self.SEQUENCES), 8, beta) == plan(self.SEQUENCES, 8, beta)

    @pytest.mark.parametrize("target", [0.2, 0.5, 1.0])
    def test_calibrate_beta(self, target):
        assert (calibrate_beta(iter(self.SEQUENCES), 8, target)
                == calibrate_beta(self.SEQUENCES, 8, target))


def calibrate_by_plans(psis, subset_size, target_fraction):
    """The bisection of `calibrate_beta`, building a whole plan at every step."""
    target = target_fraction * sum(len(psi) for psi in psis)

    def count_at(beta):
        p = plan_from_redundancies(psis, subset_size, beta)
        return p.total(), p

    lo = 0.0
    lo_count, lo_plan = count_at(lo)
    if lo_count <= target:
        return lo, lo_plan
    hi = MAX_BETA
    hi_count, hi_plan = count_at(hi)
    if hi_count > target:
        return hi, hi_plan
    for _ in range(CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        mid_count, mid_plan = count_at(mid)
        if mid_count > target:
            lo, lo_count, lo_plan = mid, mid_count, mid_plan
        else:
            hi, hi_count, hi_plan = mid, mid_count, mid_plan
    if abs(lo_count - target) <= abs(hi_count - target):
        return lo, lo_plan
    return hi, hi_plan


@pytest.mark.parametrize("seed", range(6))
def test_calibration_matches_plan_per_step_oracle(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    # Redundancies on a coarse grid tie often; 19 and 13 frames leave short
    # tail subsets of 3 and 5 at subset size 8.
    psis = [rng.integers(0, 9, n) / 8.0 for n in (19, 13, 24)]
    sequences = [[None] * len(psi) for psi in psis]
    by_sequence = {id(seq): psi for seq, psi in zip(sequences, psis)}
    monkeypatch.setattr("lim3d.sampling.frame_redundancies",
                        lambda frames: by_sequence[id(frames)])
    for target in (0.01, 0.1, 0.2, 0.25, 0.37, 0.5, 0.8, 1.0):
        assert calibrate_beta(sequences, 8, target) == calibrate_by_plans(psis, 8, target)


class TestPlanIO:
    def test_save_load_roundtrip(self, tmp_path):
        frames = two_regime_frames()
        result = plan([frames], 8, 4.0)
        save_plan(tmp_path / "plan.json", {"00": result.entries[0]})
        loaded = load_plan(tmp_path / "plan.json")
        assert loaded == {"00": result.entries[0]}

    def test_load_returns_the_saved_dict(self, tmp_path):
        written = {"00": [0, 3, 7], "01": [], "10": [2]}
        save_plan(tmp_path / "plan.json", written)
        assert load_plan(tmp_path / "plan.json") == written

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
