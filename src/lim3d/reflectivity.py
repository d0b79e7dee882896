"""Distance-normalized reflectivity and multi-resolution histogram features.

Reflectivity is intensity scaled by squared range, ``R = I * r^2``, which
cancels the inverse-square falloff of the return and tracks the surface
material rather than the distance. Per frame, R is rescaled into [0, 1)
and histogrammed over ``n_bins`` value ranges inside coarse cylindrical
``(rho, phi)`` bins at several resolutions. Every point inherits its bin's
max-normalized histogram, concatenated over the scales, giving a
label-free per-point descriptor of length ``n_scales * n_bins``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError, ValidationError, is_count
from .pointcloud import PointCloud

__all__ = [
    "ReflecConfig",
    "reflectivity",
    "normalize_reflectivity",
    "coarse_histograms",
    "augment",
]

_EPS = 1e-6


@dataclass(frozen=True)
class ReflecConfig:
    """Histogram bins per value range and the per-scale (rho, phi) grids,
    all integers >= 1."""

    n_bins: int = 10
    bin_grids: tuple[tuple[int, int], ...] = ((20, 40), (40, 80), (80, 120))

    def __post_init__(self):
        if not is_count(self.n_bins):
            raise DomainError(f"n_bins must be an integer >= 1, got {self.n_bins!r}")
        if not self.bin_grids:
            raise DomainError("at least one (rho, phi) bin grid is required")
        for g in self.bin_grids:
            if len(g) != 2 or not all(map(is_count, g)):
                raise DomainError(f"bad bin grid {g!r}")

    @property
    def n_scales(self) -> int:
        return len(self.bin_grids)

    @property
    def feature_dim(self) -> int:
        return self.n_scales * self.n_bins


def reflectivity(pc: PointCloud) -> np.ndarray:
    """Per-point ``R = intensity * (x^2 + y^2 + z^2)``."""
    xyz = pc.xyz.astype(np.float64)
    return pc.intensity.astype(np.float64) * np.einsum("ij,ij->i", xyz, xyz)


def normalize_reflectivity(r: np.ndarray) -> np.ndarray:
    """Rescale raw reflectivity into [0, 1) by the per-frame maximum."""
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0:
        return r.copy()
    top = float(r.max())
    if top <= 0.0:
        return np.zeros_like(r)
    return r / (top + _EPS)


def coarse_histograms(pc: PointCloud, r_norm: np.ndarray, cfg: ReflecConfig) -> np.ndarray:
    """Per-point float32 histogram features of shape ``(n_points, n_scales * n_bins)``.

    `r_norm` must already lie in [0, 1). For each scale, points fall into
    cylindrical bins spanning the frame's observed rho range and the full
    [-pi, pi) azimuth; the bin's reflectivity histogram is divided by its
    largest count (nonempty bins therefore contain an exact 1.0) and
    broadcast to every point in the bin.
    """
    r_norm = np.asarray(r_norm, dtype=np.float64)
    n = len(pc)
    if r_norm.shape != (n,):
        raise ShapeError(f"reflectivity shape {r_norm.shape} does not match {n} points")
    if n and (r_norm.min() < 0.0 or r_norm.max() >= 1.0):
        raise DomainError("normalized reflectivity must lie in [0, 1)")

    out = np.zeros((n, cfg.feature_dim), dtype=np.float32)
    if n == 0:
        return out

    xyz = pc.xyz.astype(np.float64)
    rho = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    rho_lo, rho_hi = float(rho.min()), float(rho.max())
    rho_span = rho_hi - rho_lo

    value_bin = np.floor(r_norm * cfg.n_bins).astype(np.int64)

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
        # Casting the per-bin table, not the per-point gather, rounds the same
        # values and halves the (n, n_bins) temporary.
        out[:, col:col + cfg.n_bins] = normalized.astype(np.float32)[cell]
    return out


def augment(pc: PointCloud, features: np.ndarray) -> PointCloud:
    """Append per-point feature columns; a cloud can be augmented once.

    C-contiguous float32 `features` (what `coarse_histograms` returns) are
    shared, not copied, and frozen: the array becomes read-only, as every
    array a `PointCloud` holds is. Any other array is converted to one first.
    """
    if pc.extra_features is not None:
        raise ValidationError("cloud already carries extra features")
    features = np.asarray(features)
    if features.ndim != 2 or len(features) != len(pc):
        raise ShapeError(f"features shape {features.shape} does not match {len(pc)} points")
    return replace(pc, extra_features=features)
