"""Cylindrical sparse voxel tensors.

Points are binned in cylinder coordinates ``(rho, phi, z)``. Bin edges are
uniform and half-open: a point exactly on a boundary falls into the
higher-index bin, and ``phi = pi`` wraps onto the ``-pi`` edge. Each point
gets one cell key, C order over the grid; a tensor's sites are checked, never
sorted, to increase in it. A point outside the grid gets the outside key
``grid.n_cells``, which sorts after every cell, so its voxel row is
``n_voxels``, one past the last; `voxelize` keeps each point's row on the
tensor as `point_rows`, the one map from points to voxels. Per-voxel features
are the mean point features ``(dx, dy, dz, intensity, *extra)`` where the
offsets are measured from the voxel center; they are summed and averaged in
float64 and stored as float32, the precision of the points. Each column is
summed in point order by ``np.bincount``; the columns are read a block of
`COLUMN_BLOCK` at a time, through transposes of `ROW_BLOCK` points, not by one
strided read each. Voxel labels are the majority vote of point labels with
ties broken toward the smaller class id, counted over the ids present in the
cloud; a negative point label raises `ValidationError`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError, is_count
from .pointcloud import PointCloud, _frozen

__all__ = [
    "CylGridSpec",
    "SparseVoxelTensor",
    "voxelize",
]

log = logging.getLogger(__name__)

# `voxelize` transposes feature columns in (4096, 8) float32 blocks of 128 kB.
COLUMN_BLOCK, ROW_BLOCK = 8, 4096


@dataclass(frozen=True)
class CylGridSpec:
    """Cylindrical grid: `n_rho` x `n_phi` x `n_z` bins over
    ``[0, rho_max) x [-pi, pi) x [z_min, z_max)``."""

    n_rho: int
    n_phi: int
    n_z: int
    rho_max: float
    z_range: tuple[float, float]

    def __post_init__(self):
        if not all(map(is_count, self.shape)):
            raise DomainError(f"bin counts must be integers >= 1, got {self.shape}")
        if not 0 < self.rho_max < np.inf:
            raise DomainError(f"rho_max must be positive and finite, got {self.rho_max!r}")
        if not -np.inf < self.z_range[0] < self.z_range[1] < np.inf:
            raise DomainError(f"z_range must be finite with min < max, got {self.z_range}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_rho, self.n_phi, self.n_z)

    @property
    def n_cells(self) -> int:
        return self.n_rho * self.n_phi * self.n_z

    def cell_key(self, i_rho, i_phi, i_z):
        """Linear index of cells, C order over `shape`; active sites are
        sorted by it."""
        return (i_rho * self.n_phi + i_phi) * self.n_z + i_z

    def cell_coords(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of `cell_key`: the ``(n, 3)`` coordinates of in-grid keys."""
        return np.column_stack(np.unravel_index(keys, self.shape))

    def voxel_centers(self, coords: np.ndarray) -> np.ndarray:
        """Cylindrical centers ``(rho, phi, z)`` of integer voxel coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        z_min, z_max = self.z_range
        rho = (coords[:, 0] + 0.5) * (self.rho_max / self.n_rho)
        phi = -np.pi + (coords[:, 1] + 0.5) * (2.0 * np.pi / self.n_phi)
        z = z_min + (coords[:, 2] + 0.5) * ((z_max - z_min) / self.n_z)
        return np.column_stack([rho, phi, z])


@dataclass(frozen=True)
class SparseVoxelTensor:
    """Active voxel coordinates plus a feature row per active site.

    Coordinates lie in the grid and strictly increase in cell key, or
    `ValidationError` is raised; rows stay as passed, so two tensors on one
    grid have the same active sites exactly when their `coords` are equal.
    Features are float32 or float64 as given (any other dtype becomes
    float64). `point_rows`, from `voxelize`, is each binned point's row, or
    `n_active` outside the grid. Every array is read-only once every check
    has passed, and shared if already in its stored dtype and layout.
    ``dataclasses.replace(t, features=...)`` runs every check again.
    """

    grid: CylGridSpec
    coords: np.ndarray            # (v, 3) int64, strictly increasing in cell key
    features: np.ndarray          # (v, channels) float32 or float64; the network computes in it
    labels: np.ndarray | None = None  # (v,) int64
    point_rows: np.ndarray | None = None  # (n_points,) integer rows in [0, v]

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.int64)
        sites = coords.reshape(-1, 3)
        features = np.ascontiguousarray(self.features)
        if features.dtype not in (np.float32, np.float64):
            features = features.astype(np.float64)
        if features.ndim != 2 or len(features) != len(sites):
            raise ShapeError(f"features shape {features.shape} does not match {len(sites)} coords")
        if not np.isfinite(features).all():
            raise ValidationError("voxel features must be finite")
        if sites.min(initial=0) < 0 or np.any(sites >= np.array(self.grid.shape)):
            raise ValidationError("voxel coordinates out of grid bounds")
        if np.any(np.diff(self.grid.cell_key(*sites.T)) <= 0):
            raise ValidationError("voxel coordinates must be strictly increasing in cell key")
        labels = None if self.labels is None else np.ascontiguousarray(self.labels, np.int64)
        if labels is not None and labels.shape != (len(sites),):
            raise ShapeError(f"labels shape {labels.shape} does not match {len(sites)} coords")
        rows = None if self.point_rows is None else np.asarray(self.point_rows)
        if rows is not None and (rows.ndim != 1 or rows.dtype.kind not in "iu"
                                 or rows.min(initial=0) < 0 or rows.max(initial=0) > len(sites)):
            raise ValidationError(f"point_rows must be a vector of integers in [0, {len(sites)}]")
        for name, arr in (("coords", _frozen(coords).reshape(-1, 3)), ("features", features),
                          ("labels", labels), ("point_rows", rows)):
            object.__setattr__(self, name, arr if arr is None else _frozen(arr))

    @property
    def n_active(self) -> int:
        return len(self.coords)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def dropped_points(self) -> int:
        """Points of the binned cloud outside the grid; 0 without `point_rows`."""
        return 0 if self.point_rows is None else int((self.point_rows == self.n_active).sum())


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------


def _cell_keys(xyz: np.ndarray, grid: CylGridSpec) -> np.ndarray:
    """Linear cell key of every point; the outside key for one outside the grid."""
    rho = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    z = xyz[:, 2]
    z_min, z_max = grid.z_range
    keep = (rho < grid.rho_max) & (z >= z_min) & (z < z_max)
    # Each index is >= 0 at its cast, which floors it. The clip before it keeps an
    # outside point's index in int64 and guards the rho_max*(1-eps), z ~ z_max edges.
    i_rho = np.minimum(rho / grid.rho_max * grid.n_rho, grid.n_rho - 1).astype(np.int64)
    i_phi = ((phi + np.pi) / (2.0 * np.pi) * grid.n_phi).astype(np.int64) % grid.n_phi
    i_z = np.clip((z - z_min) / (z_max - z_min) * grid.n_z, 0, grid.n_z - 1).astype(np.int64)
    keys = grid.cell_key(i_rho, i_phi, i_z)
    return np.where(keep, keys, grid.n_cells)


def _columns(sources: list[np.ndarray], n: int):
    """Every column of the (n, k) float32 `sources`, in order, as a contiguous
    row of one reused buffer: read it before taking the next."""
    block = np.empty((min(COLUMN_BLOCK, max(src.shape[1] for src in sources)), n), np.float32)
    for src in sources:
        for first in range(0, src.shape[1], COLUMN_BLOCK):
            part = src[:, first:first + COLUMN_BLOCK]
            rows = block[:part.shape[1]]
            for start in range(0, n, ROW_BLOCK):
                rows[:, start:start + ROW_BLOCK] = part[start:start + ROW_BLOCK].T
            yield from rows


def voxelize(pc: PointCloud, grid: CylGridSpec) -> SparseVoxelTensor:
    """Bin a cloud into the cylindrical grid.

    Points with ``rho >= rho_max`` or ``z`` outside the grid are dropped:
    they take the outside key and row ``n_voxels``, which no voxel keeps.
    Their count is logged; every point's row is kept as `point_rows`. Feature
    rows are ``(dx, dy, dz, intensity, *extra_features)`` averaged per voxel
    in float64 and returned as float32; offsets are from the voxel center in
    Cartesian coordinates.

    Raises:
        ValidationError: a point label is negative.
    """
    if pc.labels is not None and pc.labels.size and pc.labels.min() < 0:
        raise ValidationError("voxelize: point labels must be nonnegative class ids")
    cells, rows, counts = np.unique(_cell_keys(pc.xyz.astype(np.float64), grid),
                                    return_inverse=True, return_counts=True)
    # The outside key sorts last: the dropped points, if any, hold row
    # `n_voxels`, the one extra bin that every sum below cuts off.
    n_voxels = int(np.searchsorted(cells, grid.n_cells))
    dropped = len(pc) - int(counts[:n_voxels].sum())
    if dropped:
        log.info("voxelize: dropped %d of %d points outside the grid", dropped, len(pc))

    sources = [pc.xyz, pc.intensity[:, None]]
    if pc.extra_features is not None:
        sources.append(pc.extra_features)
    coords = grid.cell_coords(cells[:n_voxels])

    # bincount adds each voxel's points in point order, in float64, and reads
    # every column whole, with no mask. Each column's sums go straight into
    # one (n_voxels, channels) array, which becomes the means in place.
    feats = np.empty((n_voxels, sum(src.shape[1] for src in sources)))
    for j, column in enumerate(_columns(sources, len(pc))):
        feats[:, j] = np.bincount(rows, weights=column, minlength=n_voxels + 1)[:n_voxels]
    feats /= counts[:n_voxels, None]

    # Offsets relative to voxel centers replace the absolute coordinates.
    rho_c, phi_c, z_c = grid.voxel_centers(coords).T
    feats[:, :3] -= np.column_stack([rho_c * np.cos(phi_c), rho_c * np.sin(phi_c), z_c])

    labels = None
    if pc.labels is not None:
        # Vote over the ids present, not up to the largest id: a .label file
        # may hold the 0xFFFFFFFF sentinel. `present` is sorted and argmax
        # takes the first maximum, so ties go to the smallest id. An empty
        # cloud has no id: one column keeps the reshape valid.
        present, label_idx = np.unique(pc.labels, return_inverse=True)
        votes = np.bincount(rows * present.size + label_idx, minlength=(n_voxels + 1) * present.size)
        labels = present[votes.reshape(-1, present.size or 1)[:n_voxels].argmax(axis=1)]

    return SparseVoxelTensor(grid=grid, coords=coords, features=feats.astype(np.float32),
                             labels=labels, point_rows=rows)
