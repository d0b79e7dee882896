"""Brute-force dense convolution oracles.

Explicit Python loops over every grid cell and kernel tap, independent of
the sparse implementation: azimuth wraps, radius and height taps falling
off the grid contribute nothing, and outputs are masked to the active set.
`densify` and `sparsify` carry a `SparseVoxelTensor` to the dense
``(n_rho, n_phi, n_z, channels)`` array the references read, and back. This
module takes classes from `lim3d` but no function, so no code under test
computes the oracle's inputs or outputs.
"""

import numpy as np

from lim3d import SparseVoxelTensor


def densify(t):
    """`t` as a dense ``(n_rho, n_phi, n_z, channels)`` float64 array, zero
    off the active sites."""
    dense = np.zeros(t.grid.shape + (t.channels,))
    dense[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = t.features
    return dense


def sparsify(dense, grid):
    """Inverse of `densify`: the sites whose feature row is not all zero, in
    C order over the grid."""
    dense = np.asarray(dense, dtype=np.float64)
    assert dense.shape[:3] == grid.shape, f"dense shape {dense.shape[:3]} != grid {grid.shape}"
    active = np.argwhere(np.any(dense != 0.0, axis=3))
    return SparseVoxelTensor(grid=grid, coords=active,
                             features=dense[active[:, 0], active[:, 1], active[:, 2]])


def dense_spatial_reference(dense, active_mask, weights, kind, bias=None):
    """Submanifold reference: `dense` is (R, P, Z, M); output masked to
    `active_mask`. `weights` is (D, D, D, M, N) or (D, D, D, M) for
    depthwise."""
    n_rho, n_phi, n_z, m = dense.shape
    d = weights.shape[0]
    r = (d - 1) // 2
    n = weights.shape[4] if kind == "standard" else m
    out = np.zeros((n_rho, n_phi, n_z, n))
    for i in range(n_rho):
        for j in range(n_phi):
            for k in range(n_z):
                if not active_mask[i, j, k]:
                    continue
                acc = np.zeros(n)
                for a in range(d):
                    for b in range(d):
                        for c in range(d):
                            ii = i + (a - r)
                            jj = (j + (b - r)) % n_phi
                            kk = k + (c - r)
                            if not (0 <= ii < n_rho and 0 <= kk < n_z):
                                continue
                            if not active_mask[ii, jj, kk]:
                                continue
                            x = dense[ii, jj, kk]
                            if kind == "standard":
                                acc += x @ weights[a, b, c]
                            else:
                                acc += x * weights[a, b, c]
                if bias is not None:
                    acc = acc + bias
                out[i, j, k] = acc
    return out


def dense_pointwise_reference(dense, active_mask, weights, bias=None):
    n_rho, n_phi, n_z, _ = dense.shape
    out = np.zeros(dense.shape[:3] + (weights.shape[1],))
    for i in range(n_rho):
        for j in range(n_phi):
            for k in range(n_z):
                if not active_mask[i, j, k]:
                    continue
                acc = dense[i, j, k] @ weights
                if bias is not None:
                    acc = acc + bias
                out[i, j, k] = acc
    return out


def dense_separable_reference(dense, active_mask, dw_weights, pw_weights,
                              dw_bias=None, pw_bias=None):
    mid = dense_spatial_reference(dense, active_mask, dw_weights, "depthwise", bias=dw_bias)
    return dense_pointwise_reference(mid, active_mask, pw_weights, bias=pw_bias)
