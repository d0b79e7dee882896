"""The synthetic scene that stands in for recorded frames, and its sensor.

This module owns the scene recipe (`SceneSpec`), the sequences made from it
(`synth_frames`, `synth_sequence`) and the spherical range projection they
are rendered with (`project_range_image`), plus `ranges_to_grayscale`,
which quantizes one sequence's range images to the 8-bit grids that frame
sampling scores. A range image is a plain read-only ``(height, width)``
float32 array of ranges in meters. Frames, labels and their file formats
belong to `lim3d.pointcloud`, which imports nothing from here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, is_count
from .pointcloud import PointCloud, _frozen

__all__ = [
    "SceneSpec",
    "project_range_image",
    "ranges_to_grayscale",
    "synth_frames",
    "synth_sequence",
]


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic labeled scene with a segment-wise motion profile.

    Its fields are the settings callers vary; the class constants below them
    are the rest of the recipe, read the same way (``spec.vfov``). A constant
    becomes a field again in the change that adds a caller who sets it.

    Classes occupy disjoint height and intensity bands, so they stay
    separable after voxelization. Frames are grouped into segments of
    `segment_length` frames; segment ``i`` translates the points of
    `moving_class`, one of the `n_classes`, by
    ``segment_speeds[i % len(segment_speeds)]`` meters per frame along +x,
    wrapping inside ``[-wrap_extent, wrap_extent]``. A speed of 0 yields
    bitwise-identical consecutive frames. The image size and `vfov` are the
    sensor `synth_frames` renders with, and their defaults are
    `project_range_image`'s.
    """

    n_points: int = 600
    segment_length: int = 8
    segment_speeds: tuple[float, ...] = (0.0, 1.0)
    image_width: int = 128
    image_height: int = 32

    n_classes: ClassVar[int] = 3
    moving_class: ClassVar[int] = 2
    wrap_extent: ClassVar[float] = 12.0
    vfov: ClassVar[tuple[float, float]] = (-5.0, 60.0)
    # Per class: (rho_lo, rho_hi, z_lo, z_hi, intensity_lo, intensity_hi)
    class_bands: ClassVar[tuple[tuple[float, float, float, float, float, float], ...]] = (
        (5.0, 7.0, -0.10, 0.10, 0.08, 0.12),
        (5.0, 7.0, 1.40, 1.60, 0.45, 0.55),
        (5.0, 7.0, 3.80, 4.20, 0.80, 0.90),
    )

    def __post_init__(self):
        if not is_count(self.n_points):
            raise DomainError(f"n_points must be an integer >= 1, got {self.n_points!r}")
        if not is_count(self.segment_length):
            raise DomainError(f"segment_length must be an integer >= 1, got {self.segment_length!r}")
        if not (self.segment_speeds and np.isfinite(self.segment_speeds).all()):
            raise DomainError(f"segment_speeds must be one or more finite speeds, "
                              f"got {self.segment_speeds!r}")


# ---------------------------------------------------------------------------
# Range projection
# ---------------------------------------------------------------------------


def _check_image(width: int, height: int, vfov: tuple[float, float]) -> None:
    if width < 1 or height < 1:
        raise DomainError("width and height must be >= 1")
    if not float(vfov[0]) < float(vfov[1]):
        raise DomainError(f"vfov must satisfy min < max, got {vfov}")


def _pixel_ranges(xyz: np.ndarray, width: int, height: int,
                  vfov: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Flat pixel ids and float32 ranges of the points that land in the image.

    Points at range 0 or outside the vertical field of view are dropped.

    Raises:
        DomainError: width or height below 1, or ``vfov`` not ``(min, max)``.
    """
    _check_image(width, height, vfov)
    vfov_min, vfov_max = float(vfov[0]), float(vfov[1])
    xyz = xyz.astype(np.float64)
    r = np.linalg.norm(xyz, axis=1)
    az = np.arctan2(xyz[:, 1], xyz[:, 0])
    el = np.degrees(np.arctan2(xyz[:, 2], np.hypot(xyz[:, 0], xyz[:, 1])))
    valid = (r > 0) & (el >= vfov_min) & (el <= vfov_max)

    # The cast floors each index >= 0; the clip keeps el == vfov_min and any dropped row in range.
    cols = ((az + np.pi) / (2.0 * np.pi) * width).astype(np.int64) % width
    rows = np.clip((vfov_max - el) / (vfov_max - vfov_min) * height, 0, height - 1)
    return (rows.astype(np.int64) * width + cols)[valid], r[valid].astype(np.float32)


def _zbuffer(pix: np.ndarray, r: np.ndarray, n_pixels: int,
             base: np.ndarray | None = None) -> np.ndarray:
    """Nearest range per flat pixel, ``inf`` where no point hit. `base`, the
    buffer of points already projected, is copied, not changed."""
    z = np.full(n_pixels, np.inf, dtype=np.float32) if base is None else base.copy()
    np.minimum.at(z, pix, r)
    return z


def _range_image(z: np.ndarray, width: int, height: int) -> np.ndarray:
    """A pixel is hit when its range is finite: `PointCloud` rejects the rest."""
    return _frozen(np.where(z < np.inf, z, np.float32(0.0)).reshape(height, width))


def project_range_image(pc: PointCloud, width: int = SceneSpec.image_width,
                        height: int = SceneSpec.image_height,
                        vfov: tuple[float, float] = SceneSpec.vfov) -> np.ndarray:
    """Project a cloud to a read-only ``(height, width)`` float32 range image,
    by default with the sensor `synth_frames` renders (`SceneSpec`'s).

    Pixels hold ranges in meters, 0 where there is no return. Azimuth maps
    to columns over [-pi, pi), elevation to rows (top row = highest
    elevation). Points at range 0 or outside the vertical field of view are
    dropped. Each pixel keeps its nearest return, found by a scatter-min
    over flat pixel ids in O(n); only the range is stored, so which of
    several equally near points wins does not matter.

    Raises:
        DomainError: width or height below 1, or ``vfov`` not ``(min, max)``.
    """
    pix, r = _pixel_ranges(pc.xyz, width, height, vfov)
    return _range_image(_zbuffer(pix, r, width * height), width, height)


def ranges_to_grayscale(images: list[np.ndarray]) -> list[np.ndarray]:
    """Quantize one sequence's range images to 8-bit grids.

    The sequence's farthest return maps to 255 and 0 (no return) stays 0;
    an all-zero sequence stays all zero.
    """
    peak = max((float(img.max()) for img in images), default=0.0) or 1.0
    return [np.round(np.clip(np.asarray(img, np.float64) / peak, 0.0, 1.0) * 255.0).astype(np.uint8)
            for img in images]


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------


def _base_scene(spec: SceneSpec, rng: np.random.Generator):
    per_class = np.full(spec.n_classes, spec.n_points // spec.n_classes)
    per_class[: spec.n_points % spec.n_classes] += 1
    xyz, intensity, labels = [], [], []
    for cls in range(spec.n_classes):
        rho_lo, rho_hi, z_lo, z_hi, i_lo, i_hi = spec.class_bands[cls]
        n = per_class[cls]
        rho = rng.uniform(rho_lo, rho_hi, n)
        phi = rng.uniform(-np.pi, np.pi, n)
        xyz.append(np.column_stack([
            rho * np.cos(phi),
            rho * np.sin(phi),
            rng.uniform(z_lo, z_hi, n),
        ]))
        intensity.append(rng.uniform(i_lo, i_hi, n))
        labels.append(np.full(n, cls, dtype=np.int64))
    # float32 once, so every frame's PointCloud shares one intensity array.
    return np.vstack(xyz), np.concatenate(intensity).astype(np.float32), np.concatenate(labels)


def synth_frames(spec: SceneSpec, n_frames: int, seed: int,
                 sequence_id: int = 0) -> Iterator[tuple[PointCloud, np.ndarray]]:
    """Sequence `sequence_id` of the run seeded `seed`, its RNG seeded
    ``seed + 1000 * sequence_id``: deterministic labeled frames, each with its
    range image, made one frame at a time as the iterator is advanced.

    Every image equals ``project_range_image(pc, spec.image_width,
    spec.image_height, spec.vfov)`` byte for byte, but only the moving class
    is projected per frame: the still classes are z-buffered once per
    sequence and each frame scatter-mins its moving points into a copy of
    that buffer. A frame whose segment speed is 0 yields the previous
    frame's cloud and range image, so consecutive frames of a still segment
    stay bitwise identical.

    Raises:
        DomainError: at the call, before any frame is made: ``n_frames``
            or an image size below 1.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    _check_image(spec.image_width, spec.image_height, spec.vfov)
    return _synth_frames(spec, n_frames, seed, sequence_id)


def _synth_frames(spec: SceneSpec, n_frames: int, seed: int,
                  sequence_id: int) -> Iterator[tuple[PointCloud, np.ndarray]]:
    rng = np.random.default_rng(seed + 1000 * sequence_id)
    xyz0, intensity, labels = _base_scene(spec, rng)
    moving = labels == spec.moving_class
    xyz32 = xyz0.astype(np.float32)
    moving_x0 = xyz0[moving, 0]
    w, h = spec.image_width, spec.image_height

    offset = 0.0
    period = 2.0 * spec.wrap_extent
    for t in range(n_frames):
        speed = float(spec.segment_speeds[(t // spec.segment_length) % len(spec.segment_speeds)])
        if t == 0 or speed != 0.0:
            offset += speed if t > 0 else 0.0
            xyz = xyz32.copy() if t else xyz32  # frame 0 never moves
            if offset != 0.0:
                xyz[moving, 0] = np.mod(moving_x0 + offset + spec.wrap_extent, period) - spec.wrap_extent
            # Checked as a PointCloud before any of its points is projected.
            pc = PointCloud(xyz=xyz, intensity=intensity, labels=labels)
            if t == 0:
                still = _zbuffer(*_pixel_ranges(pc.xyz[~moving], w, h, spec.vfov), w * h)
            pix, r = _pixel_ranges(pc.xyz[moving], w, h, spec.vfov)
            ri = _range_image(_zbuffer(pix, r, w * h, base=still), w, h)
        yield pc, ri


def synth_sequence(spec: SceneSpec, n_frames: int, seed: int,
                   sequence_id: int = 0) -> list[tuple[PointCloud, np.ndarray]]:
    """`synth_frames` as a list: sequence `sequence_id`, seeded ``seed + 1000 * sequence_id``."""
    return list(synth_frames(spec, n_frames, seed, sequence_id))
