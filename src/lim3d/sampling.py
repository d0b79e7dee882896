"""Redundancy-aware frame selection for continuously captured sequences.

Frames are 8-bit grayscale grids, such as `ranges_to_grayscale` makes of a
sequence's range images. Each sequence is split into subsets of
`subset_size` consecutive frames. A frame's redundancy is the structural
similarity between it and the next frame in the sequence (the last frame
reuses its predecessor pair), clamped to [0, 1]. The mean redundancy ``x``
of a subset feeds the decay supervisor ``exp(-beta * x)``, and the subset
contributes ``max(1, ceil(exp(-beta * x) * q))`` frames, ``q`` being
`subset_size` (a shorter tail subset gives at most all of its frames); the
least redundant frames are chosen first, ties going to the lower frame
index. Static stretches therefore collapse to a single pick per subset at
high beta, while dynamic stretches keep most frames.

Scoring a sequence of ``p`` frames takes each frame's SSIM window
statistics once (`lim3d.ssim.frame_stats`) and carries them to the next
pair, in one serial loop.

`plan` and `calibrate_beta` take ``sequences`` as any iterable of
sequences, such as a generator that loads each sequence's frames when it
is reached. They go through it once, keep only each sequence's redundancy
vector, and count frames from those vectors, so no two sequences' frames
need to be held at once.

Passive uniform and seeded-random baselines, plus a bisection calibrator
that finds the beta hitting a target global sampling fraction, round out
the module. The calibrator brackets beta in [0, `MAX_BETA`] and halves the
bracket `CALIBRATION_STEPS` times, counting frames from the subset means
alone; it builds one plan, for the beta it returns.

A plan file is the JSON object ``{sequence name: [frame ids]}``: `save_plan`
writes such a dict and `load_plan` returns one. A `SamplingPlan` holds list
positions, which ``lim3d sample`` maps to the names and ids on disk first.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, ValidationError
from .ssim import frame_stats, pair_score

__all__ = [
    "SamplingPlan",
    "supervisor",
    "frame_redundancies",
    "plan",
    "plan_from_redundancies",
    "passive_baselines",
    "calibrate_beta",
    "save_plan",
    "load_plan",
]


MAX_BETA = 1024.0
CALIBRATION_STEPS = 64


def _check_settings(subset_size: int, beta: float = 0.0) -> None:
    """Reject bad settings before any structural-similarity work."""
    if subset_size < 1:
        raise DomainError("subset_size must be >= 1")
    if beta < 0:
        raise DomainError("beta must be nonnegative")


@dataclass
class SamplingPlan:
    """Chosen frame indices per sequence id, each list sorted and unique."""

    entries: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        for seq, idx in self.entries.items():
            if len(set(idx)) != len(idx):
                raise ValidationError(f"sequence {seq}: duplicate frame indices")
            self.entries[seq] = sorted(int(i) for i in idx)

    def total(self) -> int:
        return sum(len(v) for v in self.entries.values())


def supervisor(x: float, beta: float) -> float:
    """Sampling fraction ``exp(-beta * x)`` for redundancy ``x`` in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"redundancy must lie in [0, 1], got {x}")
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    return math.exp(-beta * x)


def frame_redundancies(frames: list[np.ndarray], n_threads: int = 1) -> np.ndarray:
    """Per-frame redundancy over one sequence, clamped to [0, 1].

    Frame ``j`` scores ``ssim(frame_j, frame_j+1)``; the final frame reuses
    its predecessor pair. A single-frame sequence scores 0 (no adjacent
    evidence of redundancy).

    `n_threads` is accepted and ignored: the benchmark's sample_sequences
    warm-up still passes it. The benchmark PR that drops that keyword from
    the warm-up removes this parameter (ROADMAP item 14).
    """
    p = len(frames)
    if p == 0:
        raise ValidationError("sequence must be nonempty")
    if p == 1:
        return np.zeros(1)
    psi = np.empty(p)
    prev = frame_stats(frames[0])
    for j in range(1, p):
        cur = frame_stats(frames[j])
        psi[j - 1] = pair_score(prev, cur)
        prev = cur
    psi[-1] = psi[-2]
    return np.clip(psi, 0.0, 1.0)


def _subset_take(mean_red: float, beta: float, q: int, n: int) -> int:
    """Frames a subset of `n` frames with mean redundancy `mean_red` keeps."""
    # At least one: exp(-beta * x) underflows to 0 once beta * x > ~745.
    return min(max(1, math.ceil(supervisor(mean_red, beta) * q)), n)


def _subsets(redundancies: list[np.ndarray], q: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Each run of `q` frames (fewer at a tail) as (sequence, first frame, redundancies)."""
    for seq_id, psi in enumerate(redundancies):
        for start in range(0, len(psi), q):
            yield seq_id, start, psi[start:start + q]


def plan_from_redundancies(redundancies: list[np.ndarray], subset_size: int,
                           beta: float) -> SamplingPlan:
    """Frame selection given precomputed per-frame redundancies."""
    _check_settings(subset_size, beta)
    entries: dict[int, list[int]] = {seq_id: [] for seq_id in range(len(redundancies))}
    for seq_id, start, sub in _subsets(redundancies, subset_size):
        k = _subset_take(float(sub.mean()), beta, subset_size, len(sub))
        order = np.argsort(sub, kind="stable")  # stable: ties to lower index
        entries[seq_id].extend(start + int(j) for j in order[:k])
    return SamplingPlan(entries=entries)


def _redundancies(sequences: Iterable[list[np.ndarray]]) -> list[np.ndarray]:
    """One pass over `sequences`. `map` passes each sequence straight to
    `frame_redundancies` and keeps no reference to it, so the previous
    sequence is free before the next is loaded."""
    return list(map(frame_redundancies, sequences))


def plan(sequences: Iterable[list[np.ndarray]], subset_size: int, beta: float) -> SamplingPlan:
    """Select frames per sequence; see the module docstring for the rule.

    `sequences` may be any iterable; it is consumed once, and plan entry
    ``i`` holds positions in the ``i``-th sequence it yields.
    """
    _check_settings(subset_size, beta)
    return plan_from_redundancies(_redundancies(sequences), subset_size, beta)


def passive_baselines(n_frames: int, fraction: float, mode: str = "uniform",
                      seed: int = 0) -> SamplingPlan:
    """Evenly spaced or seeded-random selection of ``ceil(fraction * n)`` frames."""
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    k = math.ceil(fraction * n_frames)
    if mode == "uniform":
        idx = [i * n_frames // k for i in range(k)]
    elif mode == "random":
        rng = np.random.default_rng(seed)
        idx = sorted(rng.choice(n_frames, size=k, replace=False).tolist())
    else:
        raise DomainError(f"mode must be 'uniform' or 'random', got {mode!r}")
    return SamplingPlan(entries={0: idx})


def calibrate_beta(sequences: Iterable[list[np.ndarray]], subset_size: int,
                   target_fraction: float) -> tuple[float, SamplingPlan]:
    """Bisection on beta toward a target global sampling fraction.

    The selected count is a nonincreasing step function of beta, so the
    search brackets the target and returns the endpoint whose count is
    closest (ties prefer the smaller beta, i.e. more frames). `sequences`
    may be any iterable; it is consumed once, and the frame total is
    counted from the redundancy vectors.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise DomainError(f"target_fraction must lie in (0, 1], got {target_fraction}")
    _check_settings(subset_size)
    psis = _redundancies(sequences)
    target = target_fraction * sum(len(psi) for psi in psis)
    subsets = [(float(sub.mean()), len(sub)) for _, _, sub in _subsets(psis, subset_size)]

    def count_at(beta: float) -> int:
        return sum(_subset_take(mean_red, beta, subset_size, n) for mean_red, n in subsets)

    lo, lo_count = 0.0, count_at(0.0)
    hi, hi_count = MAX_BETA, count_at(MAX_BETA)
    if lo_count <= target:
        beta = lo
    elif hi_count > target:
        # Floor of the step function still above target; best effort.
        beta = hi
    else:
        for _ in range(CALIBRATION_STEPS):
            mid = 0.5 * (lo + hi)
            mid_count = count_at(mid)
            if mid_count > target:
                lo, lo_count = mid, mid_count
            else:
                hi, hi_count = mid, mid_count
        beta = lo if abs(lo_count - target) <= abs(hi_count - target) else hi
    return beta, plan_from_redundancies(psis, subset_size, beta)


def save_plan(path: str | os.PathLike, plan_: dict[str, list[int]]) -> None:
    """Write a ``{sequence name: frame ids}`` plan as `load_plan` returns it."""
    with open(path, "w") as f:
        json.dump(plan_, f, indent=2, sort_keys=True)
        f.write("\n")


def load_plan(path: str | os.PathLike) -> dict[str, list[int]]:
    """Read a plan written by `save_plan`; anything else raises `FormatError`."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: a plan is a JSON object, got {type(payload).__name__}")
    for key, idx in payload.items():
        if not isinstance(idx, list):
            raise FormatError(f"{path}: sequence {key!r} must map to a list of frame indices")
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in idx):
            raise FormatError(f"{path}: sequence {key!r} has a non-integer frame index")
    return payload
