"""Structural similarity (SSIM) for 8-bit grayscale grids.

Mean SSIM over all stride-1 sliding windows, uniform window weighting,
constants K1=0.01, K2=0.03 on a dynamic range of 255. The uniform window
(8x8 by default) keeps the value exactly reproducible against a plain
nested-loop implementation; `ssim(x, x)` is exactly 1.0 and the measure is
bitwise symmetric in its arguments.

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

import numpy as np

from .errors import DomainError, ShapeError

__all__ = ["ssim", "DEFAULT_WINDOW"]

DEFAULT_WINDOW = 8
_K1 = 0.01
_K2 = 0.03
_L = 255.0


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


def ssim(a: np.ndarray, b: np.ndarray, window: int = DEFAULT_WINDOW) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("ssim expects 2-D grayscale grids")
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    if 0 in a.shape:
        raise ShapeError(f"ssim needs a nonempty grid, got shape {a.shape}")
    if window < 1:
        raise DomainError("window must be >= 1")
    win = min(window, a.shape[0], a.shape[1])

    c1 = (_K1 * _L) ** 2
    c2 = (_K2 * _L) ** 2

    mu_a = _window_means(a, win)
    mu_b = _window_means(b, win)
    # Covariances share one code path so ssim(x, x) stays exact.
    var_a = _window_means(a * a, win) - mu_a * mu_a
    var_b = _window_means(b * b, win) - mu_b * mu_b
    cov = _window_means(a * b, win) - mu_a * mu_b

    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / \
            ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(score.mean())
