"""Structural similarity (SSIM) for 8-bit grayscale grids.

Mean SSIM over all stride-1 sliding windows, uniform window weighting,
constants K1=0.01, K2=0.03 on a dynamic range of 255. The uniform 8x8
window (clipped to a smaller grid's sides) keeps the value exactly
reproducible against a plain nested-loop implementation; `ssim(x, x)` is
exactly 1.0 and the measure is bitwise symmetric in its arguments.

The work splits in two steps. `frame_stats` takes one frame's window means
``mu``, ``mu * mu`` and variance; `pair_score` combines two frames'
statistics with the one table that needs both, the window means of the
product ``a * b``. `ssim(a, b)` is ``pair_score(frame_stats(a),
frame_stats(b))``, so a caller scoring a run of adjacent frames can take
each frame's statistics once and reuse them for both of its pairs.

Window means are exact window sums divided by ``win * win``. Each axis is
summed by doubling runs (runs of 1, 2, 4, ... elements, then the runs that
make up `win`: 3 adds per axis for an 8-wide window) in a dtype chosen from
the input dtype's range, never from the data: int32 when
``win**2 * max|x|**2 < 2**31`` (8-bit grids at the full 8x8 window),
float64 otherwise and for float input. The squares ``x * x`` and products
``a * b`` are formed in that dtype. Each window is summed on its own, so
on integer-valued grids whose window sums of squares stay below 2**53
(8- and 16-bit grids at the full 8x8 window) every sum is exact at any
grid size, and each window mean is the correctly rounded ``sum / n``,
bitwise equal to averaging the window directly. For other inputs the
means differ from a direct average by rounding only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

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


def _sum_dtype(dtype: np.dtype, win: int) -> type:
    """int32 when no window sum of squares of `dtype` data can overflow it,
    else float64 (and for float data)."""
    if dtype.kind not in "biu":
        return np.float64
    peak = 1 if dtype.kind == "b" else max(-int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    bound = win * win * peak * peak
    return np.int32 if bound < 2**31 else np.float64


def _run_sums(flat: np.ndarray, win: int, step: int) -> np.ndarray:
    """``flat[i] + flat[i + step] + ... + flat[i + (win - 1) * step]`` for
    every `i` where the last term is in range, by doubling runs."""
    n = len(flat) - (win - 1) * step
    sums, offset, run, width = None, 0, flat, 1
    while width <= win:
        if win & width:
            piece = run[offset:offset + n]
            sums = piece if sums is None else sums + piece
            offset += width * step
        if 2 * width <= win:
            k = width * step
            run = run[:-k] + run[k:]
        width *= 2
    return sums


def _window_means(x: np.ndarray, win: int) -> np.ndarray:
    """Mean of every stride-1 ``win x win`` window of `x`, as float64, from
    sums in `x`'s dtype: down the flattened grid (runs ``w`` elements apart),
    then along it; a run that wraps past a row's end lands in a column no
    window reads."""
    h, w = x.shape
    rows = _run_sums(np.ascontiguousarray(x).ravel(), win, w)
    sums = _run_sums(rows, win, 1)
    windows = as_strided(sums, (h - win + 1, w - win + 1), (w * sums.itemsize, sums.itemsize))
    means = windows.astype(np.float64)
    means /= win * win
    return means


def frame_stats(x: np.ndarray) -> FrameStats:
    """Window means, their squares and the variance of one 2-D grid."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError("ssim expects 2-D grayscale grids")
    if 0 in x.shape:
        raise ShapeError(f"ssim needs a nonempty grid, got shape {x.shape}")
    win = min(DEFAULT_WINDOW, x.shape[0], x.shape[1])
    xs = x.astype(_sum_dtype(x.dtype, win), copy=False)
    mu = _window_means(xs, win)
    mu_sq = mu * mu
    var = _window_means(xs * xs, win)
    var -= mu_sq
    return FrameStats(x, win, mu, mu_sq, var)


def pair_score(a: FrameStats, b: FrameStats) -> float:
    """SSIM of two frames from their `frame_stats`."""
    if a.x.shape != b.x.shape:
        raise ShapeError(f"image shapes differ: {a.x.shape} vs {b.x.shape}")
    # mu_a * mu_b serves the covariance and, doubled (exact), the numerator.
    # The products are summed in the squares' dtype, so ssim(x, x) is exactly 1.
    # In place, the formula is (2 mu_ab + C1) (2 cov + C2) /
    # ((mu_a^2 + mu_b^2 + C1) (var_a + var_b + C2)), operation for operation.
    dtype = _sum_dtype(np.result_type(a.x.dtype, b.x.dtype), a.win)
    num = a.mu * b.mu
    cov = _window_means(np.multiply(a.x, b.x, dtype=dtype), a.win)
    cov -= num
    cov *= 2.0
    cov += _C2
    num *= 2.0
    num += _C1
    num *= cov
    den = a.mu_sq + b.mu_sq
    den += _C1
    np.add(a.var, b.var, out=cov)
    cov += _C2
    den *= cov
    num /= den
    return float(num.mean())


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    return pair_score(frame_stats(a), frame_stats(b))
