"""Earlier implementations of per-frame array passes, kept as oracles.

- `voxelize_reference` bins the points itself, by the documented rule of
  uniform half-open bins over ``[0, rho_max) x [-pi, pi) x [z_min, z_max)``,
  and sums each feature column with its own masked, strided read:
  ``bincount(inverse, weights=column[keep])``. Its `point_rows` are the
  kept points' ``inverse``, and ``n_voxels`` for the others.
- `point_rows` finds each point's row by binning it the same way and
  searching its cell key among a tensor's sites.
- `coarse_histograms_reference` writes each scale's ``(n, n_bins)`` gather
  into its slice of the output.
- `build_rulebook_reference` sorts the site keys and finds each neighbor by
  ``searchsorted`` and a compare.

`lim3d.voxel.voxelize`, `lim3d.reflectivity.coarse_histograms` and
`lim3d.sparseconv.build_rulebook` read the same values and add them in the
same order, so on any valid input the outputs must agree byte for byte.
"""

import numpy as np

from lim3d.sparseconv import Rulebook
from lim3d.voxel import SparseVoxelTensor


def uniform_bins(values, lo, hi, n):
    """Index of each value among `n` uniform half-open bins over ``[lo, hi)``;
    `n` for a value at `hi` or one that rounds up onto it."""
    return np.floor((values - lo) / (hi - lo) * n).astype(np.int64)


def reference_cells(pc, grid):
    """The mask of the points inside `grid`, and the cell key of each point
    inside, binned by the documented rule."""
    xyz = pc.xyz.astype(np.float64)
    rho, phi, z = np.hypot(xyz[:, 0], xyz[:, 1]), np.arctan2(xyz[:, 1], xyz[:, 0]), xyz[:, 2]
    keep = (rho < grid.rho_max) & (grid.z_range[0] <= z) & (z < grid.z_range[1])
    # A kept rho or z that rounds up onto the top edge stays in the last bin;
    # phi = pi wraps onto bin 0.
    cells = (np.minimum(uniform_bins(rho[keep], 0.0, grid.rho_max, grid.n_rho), grid.n_rho - 1),
             uniform_bins(phi[keep], -np.pi, np.pi, grid.n_phi) % grid.n_phi,
             np.minimum(uniform_bins(z[keep], *grid.z_range, grid.n_z), grid.n_z - 1))
    return keep, np.ravel_multi_index(cells, grid.shape)


def voxelize_reference(pc, grid):
    keep, keys = reference_cells(pc, grid)
    xyz = pc.xyz.astype(np.float64)
    columns = [*xyz.T, pc.intensity]
    if pc.extra_features is not None:
        columns.extend(pc.extra_features.T)
    if keys.size == 0:
        return SparseVoxelTensor(grid=grid, coords=np.empty((0, 3), dtype=np.int64),
                                 features=np.empty((0, len(columns)), np.float32),
                                 labels=None if pc.labels is None else np.empty(0, np.int64),
                                 point_rows=np.zeros(len(pc), np.intp))
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    n_voxels = uniq_keys.size
    rows = np.full(len(pc), n_voxels, np.intp)
    rows[keep] = inverse
    coords = grid.cell_coords(uniq_keys)
    feats = np.empty((n_voxels, len(columns)))
    for j, c in enumerate(columns):
        feats[:, j] = np.bincount(inverse, weights=c[keep], minlength=n_voxels)
    feats /= np.bincount(inverse, minlength=n_voxels)[:, None]
    centers = grid.voxel_centers(coords)
    feats[:, :3] -= np.column_stack([centers[:, 0] * np.cos(centers[:, 1]),
                                     centers[:, 0] * np.sin(centers[:, 1]), centers[:, 2]])
    labels = None
    if pc.labels is not None:
        present, label_idx = np.unique(pc.labels[keep], return_inverse=True)
        votes = np.bincount(inverse * present.size + label_idx, minlength=n_voxels * present.size)
        labels = present[votes.reshape(n_voxels, present.size).argmax(axis=1)]
    return SparseVoxelTensor(grid=grid, coords=coords, features=feats.astype(np.float32),
                             labels=labels, point_rows=rows)


def point_rows(pc, t):
    """Row of `t` holding each point of `pc`, found by searching the point's
    cell key among `t`'s; -1 for a point outside the grid or in a cell that
    `t` leaves inactive."""
    keep, keys = reference_cells(pc, t.grid)
    # The end key is no cell's, so a search past the last site matches nothing.
    active = np.append(t.grid.cell_key(*t.coords.T), t.grid.n_cells)
    found = np.searchsorted(active, keys)
    rows = np.full(len(pc), -1, np.intp)
    rows[keep] = np.where(active[found] == keys, found, -1)
    return rows


def coarse_histograms_reference(pc, r_norm, cfg):
    n = len(pc)
    out = np.zeros((n, cfg.feature_dim), dtype=np.float32)
    if n == 0:
        return out
    xyz = pc.xyz.astype(np.float64)
    rho = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    rho_lo, rho_hi = float(rho.min()), float(rho.max())
    rho_span = rho_hi - rho_lo
    value_bin = np.floor(np.asarray(r_norm, dtype=np.float64) * cfg.n_bins).astype(np.int64)
    for scale, (n_rho, n_phi) in enumerate(cfg.bin_grids):
        if rho_span > 0.0:
            i_rho = np.minimum((np.floor((rho - rho_lo) / rho_span * n_rho)).astype(np.int64),
                               n_rho - 1)
        else:
            i_rho = np.zeros(n, dtype=np.int64)
        i_phi = np.floor((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(np.int64) % n_phi
        cell = i_rho * n_phi + i_phi
        counts = np.bincount(cell * cfg.n_bins + value_bin, minlength=n_rho * n_phi * cfg.n_bins)
        counts = counts.reshape(n_rho * n_phi, cfg.n_bins).astype(np.float64)
        peaks = counts.max(axis=1)
        nonempty = peaks > 0
        normalized = np.zeros_like(counts)
        normalized[nonempty] = counts[nonempty] / peaks[nonempty, None]
        col = scale * cfg.n_bins
        out[:, col:col + cfg.n_bins] = normalized.astype(np.float32)[cell]
    return out


def build_rulebook_reference(coords, grid, kernel_size, block=256):
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    n, taps = len(coords), kernel_size ** 3
    keys = grid.cell_key(*coords.T)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    d_rho, d_phi, d_z = np.indices((kernel_size,) * 3).reshape(3, taps) - (kernel_size - 1) // 2
    neighbors = np.empty((n, taps), np.intp)
    for start in range(0, n, block):
        c = coords[start:start + block]
        n_rho, n_z = c[:, :1] + d_rho, c[:, 2:] + d_z
        valid = (n_rho >= 0) & (n_rho < grid.n_rho) & (n_z >= 0) & (n_z < grid.n_z)
        neigh_keys = grid.cell_key(n_rho, (c[:, 1:2] + d_phi) % grid.n_phi, n_z)
        pos = np.minimum(np.searchsorted(sorted_keys, neigh_keys), n - 1)
        found = valid & (sorted_keys[pos] == neigh_keys)
        neighbors[start:start + block] = np.where(found, order[pos], n)
    return Rulebook(neighbors)
