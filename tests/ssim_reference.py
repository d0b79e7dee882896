"""Standalone nested-loop structural-similarity oracles.

`ssim_reference` is deliberately naive and independent of the library
implementation: every sliding window is scored with scalar Python
arithmetic. `ssim_direct` averages every window directly with
`ndarray.mean` and then applies the library's array formula, so on
integer-valued grids it must equal `lim3d.ssim` bitwise. Runnable directly
on two PGM paths for manual spot checks.
"""

import sys

import numpy as np

K1 = 0.01
K2 = 0.03
L = 255.0


def ssim_reference(a, b, window=8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape and a.ndim == 2
    h, w = a.shape
    win = min(window, h, w)
    c1 = (K1 * L) ** 2
    c2 = (K2 * L) ** 2
    scores = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            pa = a[i:i + win, j:j + win]
            pb = b[i:i + win, j:j + win]
            mu_a = pa.mean()
            mu_b = pb.mean()
            var_a = (pa * pa).mean() - mu_a * mu_a
            var_b = (pb * pb).mean() - mu_b * mu_b
            cov = (pa * pb).mean() - mu_a * mu_b
            scores.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                          / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    return float(np.mean(scores))


def window_means_direct(x, win):
    """Mean of every stride-1 ``win x win`` window, one window at a time."""
    h, w = x.shape
    out = np.empty((h - win + 1, w - win + 1))
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            out[i, j] = x[i:i + win, j:j + win].mean()
    return out


def ssim_direct(a, b, window=8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape and a.ndim == 2
    win = min(window, *a.shape)
    c1 = (K1 * L) ** 2
    c2 = (K2 * L) ** 2
    mu_a = window_means_direct(a, win)
    mu_b = window_means_direct(b, win)
    var_a = window_means_direct(a * a, win) - mu_a * mu_a
    var_b = window_means_direct(b * b, win) - mu_b * mu_b
    cov = window_means_direct(a * b, win) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / \
            ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(score.mean())


if __name__ == "__main__":
    sys.path.insert(0, "src")
    from lim3d.pointcloud import read_pgm

    print(ssim_reference(read_pgm(sys.argv[1]), read_pgm(sys.argv[2])))
