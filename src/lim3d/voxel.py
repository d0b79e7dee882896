"""Cylindrical sparse voxel tensors.

Points are binned in cylinder coordinates ``(rho, phi, z)``. Bin edges are
uniform and half-open: a point exactly on a boundary falls into the
higher-index bin, and ``phi = pi`` wraps onto the ``-pi`` edge. Per-voxel
features are the mean point features ``(dx, dy, dz, intensity, *extra)``
where the offsets are measured from the voxel center; they are summed and
averaged in float64 and stored as float32, the precision of the points.
Voxel labels are the majority vote of point labels with ties broken toward
the smaller class id, counted over the ids present in the cloud; a
negative point label raises `ValidationError`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, DomainError, ShapeError, ValidationError
from .pointcloud import PointCloud

__all__ = [
    "CylGridSpec",
    "SparseVoxelTensor",
    "voxelize",
    "point_rows",
    "densify",
    "sparsify",
]

log = logging.getLogger(__name__)

DENSIFY_GUARD = 10_000_000


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
        if min(self.n_rho, self.n_phi, self.n_z) < 1:
            raise DomainError("all bin counts must be >= 1")
        if self.rho_max <= 0:
            raise DomainError("rho_max must be positive")
        if not self.z_range[0] < self.z_range[1]:
            raise DomainError(f"z_range must satisfy min < max, got {self.z_range}")

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

    Coordinates are lexicographically sorted, unique and in-bounds;
    features are float32 or float64 as given (any other dtype becomes
    float64), one row per coordinate. `dropped_points` counts points
    discarded during voxelization (out of grid range).
    """

    grid: CylGridSpec
    coords: np.ndarray            # (v, 3) int64, sorted lexicographically
    features: np.ndarray          # (v, channels) float32 or float64; the network computes in it
    labels: np.ndarray | None = None  # (v,) int64
    dropped_points: int = 0

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.int64).reshape(-1, 3)
        features = np.ascontiguousarray(self.features)
        if features.dtype not in (np.float32, np.float64):
            features = features.astype(np.float64)
        if features.ndim != 2 or len(features) != len(coords):
            raise ShapeError(f"features shape {features.shape} does not match {len(coords)} coords")
        if not np.isfinite(features).all():
            raise ValidationError("voxel features must be finite")
        if len(coords):
            if coords.min() < 0 or np.any(coords >= np.array(self.grid.shape)):
                raise ValidationError("voxel coordinates out of grid bounds")
            keys = self.grid.cell_key(*coords.T)
            if np.unique(keys).size != len(keys):
                raise ValidationError("duplicate voxel coordinates")
            order = np.argsort(keys, kind="stable")
            coords = coords[order]
            features = features[order]
            if self.labels is not None:
                labels = np.ascontiguousarray(self.labels, dtype=np.int64).reshape(-1)
                if len(labels) != len(coords):
                    raise ShapeError("labels length does not match coords")
                object.__setattr__(self, "labels", labels[order])
        for name, arr in (("coords", coords), ("features", features)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_active(self) -> int:
        return len(self.coords)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    def keys(self) -> np.ndarray:
        """Sorted linear cell indices of the active sites."""
        return self.grid.cell_key(*self.coords.T)

    def with_features(self, features: np.ndarray) -> "SparseVoxelTensor":
        return replace(self, features=features)

    def coord_set(self) -> set[tuple[int, int, int]]:
        return {tuple(c) for c in self.coords.tolist()}


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------


def _bin_points(xyz: np.ndarray, grid: CylGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the points inside the grid, and the linear cell key of each of those."""
    rho = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    z = xyz[:, 2]
    z_min, z_max = grid.z_range
    keep = (rho < grid.rho_max) & (z >= z_min) & (z < z_max)
    i_rho = np.floor(rho[keep] / grid.rho_max * grid.n_rho).astype(np.int64)
    i_phi = np.floor((phi[keep] + np.pi) / (2.0 * np.pi) * grid.n_phi).astype(np.int64) % grid.n_phi
    i_z = np.floor((z[keep] - z_min) / (z_max - z_min) * grid.n_z).astype(np.int64)
    i_rho = np.minimum(i_rho, grid.n_rho - 1)  # guards rho == rho_max*(1-eps) float edge
    i_z = np.minimum(i_z, grid.n_z - 1)
    return keep, grid.cell_key(i_rho, i_phi, i_z)


def voxelize(pc: PointCloud, grid: CylGridSpec) -> SparseVoxelTensor:
    """Bin a cloud into the cylindrical grid.

    Points with ``rho >= rho_max`` or ``z`` outside the grid are dropped;
    the count is logged and recorded on the result. Feature rows are
    ``(dx, dy, dz, intensity, *extra_features)`` averaged per voxel in
    float64 and returned as float32; offsets are from the voxel center in
    Cartesian coordinates.

    Raises:
        ValidationError: a point label is negative.
    """
    if pc.labels is not None and pc.labels.size and pc.labels.min() < 0:
        raise ValidationError("voxelize: point labels must be nonnegative class ids")
    xyz = pc.xyz.astype(np.float64)
    keep, keys = _bin_points(xyz, grid)
    dropped = int(len(pc) - keep.sum())
    if dropped:
        log.info("voxelize: dropped %d of %d points outside the grid", dropped, len(pc))

    columns = [*xyz.T, pc.intensity]
    if pc.extra_features is not None:
        columns.extend(pc.extra_features.T)

    if keys.size == 0:
        empty_labels = np.empty(0, dtype=np.int64) if pc.labels is not None else None
        return SparseVoxelTensor(grid=grid, coords=np.empty((0, 3), dtype=np.int64),
                                 features=np.empty((0, len(columns)), np.float32),
                                 labels=empty_labels, dropped_points=dropped)

    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    n_voxels = uniq_keys.size
    coords = grid.cell_coords(uniq_keys)

    # bincount adds each voxel's points in point order, in float64. Masking
    # one column at a time means the (n, k) extra features are never copied whole.
    sums = np.column_stack([np.bincount(inverse, weights=c[keep], minlength=n_voxels)
                            for c in columns])
    counts = np.bincount(inverse, minlength=n_voxels).astype(np.float64)
    feats = sums / counts[:, None]

    # Offsets relative to voxel centers replace the absolute coordinates.
    centers_cyl = grid.voxel_centers(coords)
    centers_xyz = np.column_stack([
        centers_cyl[:, 0] * np.cos(centers_cyl[:, 1]),
        centers_cyl[:, 0] * np.sin(centers_cyl[:, 1]),
        centers_cyl[:, 2],
    ])
    feats[:, :3] -= centers_xyz

    labels = None
    if pc.labels is not None:
        # Vote over the ids present, not up to the largest id: a .label file
        # may hold the 0xFFFFFFFF sentinel.
        present, label_idx = np.unique(pc.labels[keep], return_inverse=True)
        votes = np.bincount(inverse * present.size + label_idx,
                            minlength=n_voxels * present.size)
        # `present` is sorted and argmax takes the first maximum, so ties go
        # to the smallest id.
        labels = present[votes.reshape(n_voxels, present.size).argmax(axis=1)]

    return SparseVoxelTensor(grid=grid, coords=coords, features=feats.astype(np.float32),
                             labels=labels, dropped_points=dropped)


def point_rows(pc: PointCloud, t: SparseVoxelTensor) -> np.ndarray:
    """Row of `t` holding each point of `pc`; -1 for a point outside the grid
    or in a cell that `t` leaves inactive."""
    keep, keys = _bin_points(pc.xyz.astype(np.float64), t.grid)
    rows = np.full(len(pc), -1, dtype=np.int64)
    active = t.keys()
    if len(active) and keys.size:
        pos = np.minimum(np.searchsorted(active, keys), len(active) - 1)
        hit = active[pos] == keys
        rows[np.flatnonzero(keep)[hit]] = pos[hit]
    return rows


# ---------------------------------------------------------------------------
# Dense round trips (oracle support)
# ---------------------------------------------------------------------------


def densify(t: SparseVoxelTensor) -> np.ndarray:
    """Expand to a dense ``(n_rho, n_phi, n_z, channels)`` array of float64."""
    size = t.grid.n_cells * t.channels
    if size > DENSIFY_GUARD:
        raise CapacityError(f"dense array of {size} elements exceeds the {DENSIFY_GUARD} guard")
    dense = np.zeros(t.grid.shape + (t.channels,), dtype=np.float64)
    if t.n_active:
        dense[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = t.features
    return dense


def sparsify(dense: np.ndarray, grid: CylGridSpec) -> SparseVoxelTensor:
    """Inverse of `densify`; all-zero feature rows become inactive sites."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[:3] != grid.shape:
        raise ShapeError(f"dense shape {dense.shape[:3]} != grid shape {grid.shape}")
    active = np.argwhere(np.any(dense != 0.0, axis=3))
    features = dense[active[:, 0], active[:, 1], active[:, 2]]
    return SparseVoxelTensor(grid=grid, coords=active, features=features)
