"""Structural similarity (SSIM) for 8-bit grayscale grids.

Mean SSIM over all stride-1 sliding windows, uniform window weighting,
constants K1=0.01, K2=0.03 on a dynamic range of 255. The uniform window
(8x8 by default) keeps the value exactly reproducible against a plain
nested-loop implementation; `ssim(x, x)` is exactly 1.0 and the measure is
bitwise symmetric in its arguments.

The work splits in two steps. `frame_stats` takes one frame's window means
``mu``, ``mu * mu`` and variance; `pair_score` combines two frames'
statistics with the one table that needs both, the window means of the
product ``a * b``. `ssim(a, b)` is ``pair_score(frame_stats(a),
frame_stats(b))``, so a caller scoring a run of adjacent frames can take
each frame's statistics once and reuse them for both of its pairs.

Window means come from summed-area tables (Crow, SIGGRAPH 1984): one zero
row and column, then cumulative sums over both axes, so each window sum is
four table lookups. For integer-valued inputs every table entry is an exact
integer as long as the sum of squares over the whole grid stays below 2^53
(an 8-bit grid of 64x512 reaches about 2.1e9), and each window mean is the
correctly rounded ``sum / n``, bitwise equal to averaging the window
directly. For other float inputs the means differ from a direct average by
rounding only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["ssim", "frame_stats", "pair_score", "FrameStats", "DEFAULT_WINDOW"]

DEFAULT_WINDOW = 8
_K1 = 0.01
_K2 = 0.03
_L = 255.0
_C1 = (_K1 * _L) ** 2
_C2 = (_K2 * _L) ** 2


class FrameStats(NamedTuple):
    """One frame's window statistics; `x` is the frame as given, not a copy."""

    x: np.ndarray
    win: int
    mu: np.ndarray
    mu_sq: np.ndarray
    var: np.ndarray


def _window_means(x: np.ndarray, win: int) -> np.ndarray:
    """Mean of every stride-1 ``win x win`` window of `x`, by summed-area table."""
    s = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    np.cumsum(x, axis=0, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    sums = s[win:, win:] - s[:-win, win:]
    sums -= s[win:, :-win]
    sums += s[:-win, :-win]
    sums /= win * win
    return sums


def frame_stats(x: np.ndarray, window: int = DEFAULT_WINDOW) -> FrameStats:
    """Window means, their squares and the variance of one 2-D grid."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError("ssim expects 2-D grayscale grids")
    if 0 in x.shape:
        raise ShapeError(f"ssim needs a nonempty grid, got shape {x.shape}")
    if window < 1:
        raise DomainError("window must be >= 1")
    win = min(window, x.shape[0], x.shape[1])
    xf = x.astype(np.float64, copy=False)
    mu = _window_means(xf, win)
    mu_sq = mu * mu
    var = _window_means(xf * xf, win) - mu_sq
    return FrameStats(x, win, mu, mu_sq, var)


def pair_score(a: FrameStats, b: FrameStats) -> float:
    """SSIM of two frames from their `frame_stats`."""
    if a.x.shape != b.x.shape:
        raise ShapeError(f"image shapes differ: {a.x.shape} vs {b.x.shape}")
    if a.win != b.win:
        raise DomainError(f"statistics taken with windows {a.win} and {b.win}")
    # mu_a * mu_b serves the covariance and, doubled (exact), the numerator.
    # The product table takes the squares' path, so ssim(x, x) is exactly 1.
    mu_ab = a.mu * b.mu
    cov = _window_means(np.multiply(a.x, b.x, dtype=np.float64), a.win) - mu_ab
    num = (2.0 * mu_ab + _C1) * (2.0 * cov + _C2)
    num /= (a.mu_sq + b.mu_sq + _C1) * (a.var + b.var + _C2)
    return float(num.mean())


def ssim(a: np.ndarray, b: np.ndarray, window: int = DEFAULT_WINDOW) -> float:
    return pair_score(frame_stats(a, window), frame_stats(b, window))
