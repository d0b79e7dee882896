"""Redundancy-aware frame selection for continuously captured sequences.

Each sequence is split into subsets of `subset_size` consecutive frames.
A frame's redundancy is the structural similarity between it and the next
frame in the sequence (the last frame reuses its predecessor pair),
clamped to [0, 1]. The mean redundancy of a subset feeds the decay
supervisor ``exp(-beta * x)``, which fixes how many frames the subset
contributes; the least redundant frames are chosen first, ties going to
the lower frame index. Static stretches therefore collapse to a single
pick per subset at high beta, while dynamic stretches keep most frames.

Passive uniform and seeded-random baselines, plus a bisection calibrator
that finds the beta hitting a target global sampling fraction, round out
the module.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, ValidationError
from .ssim import ssim

__all__ = [
    "StrfdConfig",
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


@dataclass(frozen=True)
class StrfdConfig:
    """Sampler settings: subset size and decay coefficient."""

    subset_size: int = 10
    beta: float = 0.0

    def __post_init__(self):
        if self.subset_size < 1:
            raise DomainError("subset_size must be >= 1")
        if self.beta < 0:
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
    """
    p = len(frames)
    if p == 0:
        raise ValidationError("sequence must be nonempty")
    if p == 1:
        return np.zeros(1)
    args = [(frames[j], frames[j + 1]) for j in range(p - 1)]
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            adjacent = list(pool.map(lambda ab: ssim(*ab), args))
    else:
        adjacent = [ssim(a, b) for a, b in args]
    psi = np.empty(p)
    psi[:-1] = adjacent
    psi[-1] = adjacent[-1]
    return np.clip(psi, 0.0, 1.0)


def plan_from_redundancies(redundancies: list[np.ndarray],
                           cfg: StrfdConfig) -> SamplingPlan:
    """Frame selection given precomputed per-frame redundancies."""
    entries: dict[int, list[int]] = {}
    q = cfg.subset_size
    for seq_id, psi in enumerate(redundancies):
        chosen: list[int] = []
        for start in range(0, len(psi), q):
            sub = psi[start:start + q]
            mean_red = float(sub.mean())
            k = min(math.ceil(supervisor(mean_red, cfg.beta) * q), len(sub))
            order = np.argsort(sub, kind="stable")  # stable: ties to lower index
            chosen.extend(start + int(j) for j in order[:k])
        entries[seq_id] = sorted(chosen)
    return SamplingPlan(entries=entries)


def plan(sequences: list[list[np.ndarray]], cfg: StrfdConfig,
         n_threads: int = 1) -> SamplingPlan:
    """Select frames per sequence; see the module docstring for the rule."""
    psis = [frame_redundancies(frames, n_threads=n_threads) for frames in sequences]
    return plan_from_redundancies(psis, cfg)


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


def calibrate_beta(sequences: list[list[np.ndarray]], cfg: StrfdConfig,
                   target_fraction: float, max_beta: float = 1024.0,
                   iterations: int = 64, n_threads: int = 1) -> tuple[float, SamplingPlan]:
    """Bisection on beta toward a target global sampling fraction.

    The selected count is a nonincreasing step function of beta, so the
    search brackets the target and returns the endpoint whose count is
    closest (ties prefer the smaller beta, i.e. more frames).
    """
    if not 0.0 < target_fraction <= 1.0:
        raise DomainError(f"target_fraction must lie in (0, 1], got {target_fraction}")
    total = sum(len(s) for s in sequences)
    target = target_fraction * total
    psis = [frame_redundancies(frames, n_threads=n_threads) for frames in sequences]

    def count_at(beta: float) -> tuple[int, SamplingPlan]:
        p = plan_from_redundancies(psis, StrfdConfig(subset_size=cfg.subset_size, beta=beta))
        return p.total(), p

    lo = 0.0
    lo_count, lo_plan = count_at(lo)
    if lo_count <= target:
        return lo, lo_plan
    hi = max_beta
    hi_count, hi_plan = count_at(hi)
    if hi_count > target:
        # Floor of the step function still above target; best effort.
        return hi, hi_plan
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        mid_count, mid_plan = count_at(mid)
        if mid_count > target:
            lo, lo_count, lo_plan = mid, mid_count, mid_plan
        else:
            hi, hi_count, hi_plan = mid, mid_count, mid_plan
    if abs(lo_count - target) <= abs(hi_count - target):
        return lo, lo_plan
    return hi, hi_plan


def save_plan(path: str | os.PathLike, plan_: SamplingPlan,
              keys: dict[int, str] | None = None) -> None:
    """Write ``{"<seq>": [frame indices...]}``; `keys` maps ids to names."""
    payload = {
        (keys[s] if keys else str(s)): idx for s, idx in sorted(plan_.entries.items())
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
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
