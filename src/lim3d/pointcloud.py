"""Point-cloud frames: binary I/O, range projection, and synthetic sequences.

File formats
------------
* ``.bin`` frames: four little-endian ``float32`` values per point in the
  order ``(x, y, z, intensity)``, 16 bytes per point.
* ``.label`` files: one little-endian ``uint32`` class id per point.
* ``.pgm`` images: binary 8-bit grayscale (``P5``), used as the external
  image format for redundancy scoring.

Frames live under ``sequences/<seq>/velodyne/<frame>.bin`` with labels in
``sequences/<seq>/labels/<frame>.label`` and grayscale renders in
``sequences/<seq>/image_2/<frame>.pgm``.

All containers are frozen dataclasses whose arrays are marked read-only at
construction, so frames can be shared across threads freely.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, ShapeError, ValidationError

__all__ = [
    "PointCloud",
    "RangeImage",
    "SceneSpec",
    "load_frame",
    "save_frame",
    "load_labels",
    "save_labels",
    "read_pgm",
    "write_pgm",
    "project_range_image",
    "range_to_grayscale",
    "synth_sequence",
    "frame_path",
    "label_path",
    "image_path",
    "list_sequence_frames",
]

log = logging.getLogger(__name__)

POINT_RECORD_BYTES = 16

# Default projection resolution mirrors a 64-beam spinning sensor.
DEFAULT_IMAGE_WIDTH = 512
DEFAULT_IMAGE_HEIGHT = 64


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PointCloud:
    """One frame of points ``(x, y, z, intensity)`` with optional labels.

    `extra_features` holds per-point feature columns appended after load
    (for example reflectivity histograms); voxelization reduces them like
    any other channel.
    """

    xyz: np.ndarray                      # (n, 3) float32
    intensity: np.ndarray                # (n,) float32 in [0, 1]
    labels: np.ndarray | None = None     # (n,) int64 class ids
    frame_id: int = 0
    sequence_id: int = 0
    extra_features: np.ndarray | None = None  # (n, k) float32

    def __post_init__(self):
        xyz = _frozen(np.ascontiguousarray(self.xyz, dtype=np.float32).reshape(-1, 3))
        inten = _frozen(np.ascontiguousarray(self.intensity, dtype=np.float32).reshape(-1))
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", inten)
        if len(inten) != len(xyz):
            raise ShapeError(f"{len(inten)} intensities for {len(xyz)} points")
        if self.labels is not None:
            labels = _frozen(np.ascontiguousarray(self.labels, dtype=np.int64).reshape(-1))
            if len(labels) != len(xyz):
                raise ValidationError(f"{len(labels)} labels for {len(xyz)} points")
            object.__setattr__(self, "labels", labels)
        if self.extra_features is not None:
            extra = np.ascontiguousarray(self.extra_features, dtype=np.float32)
            if extra.ndim != 2 or len(extra) != len(xyz):
                raise ShapeError(f"extra_features shape {extra.shape} does not match {len(xyz)} points")
            object.__setattr__(self, "extra_features", _frozen(extra))

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass(frozen=True)
class RangeImage:
    """Row-major grid of ranges in meters; 0 marks pixels with no return."""

    width: int
    height: int
    values: np.ndarray  # (height, width) float32

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.shape != (self.height, self.width):
            raise ShapeError(f"values shape {values.shape} != (height={self.height}, width={self.width})")
        if np.any(values < 0):
            raise ValidationError("range image contains negative ranges")
        object.__setattr__(self, "values", _frozen(values))


# ---------------------------------------------------------------------------
# Binary frame and label I/O
# ---------------------------------------------------------------------------


def load_frame(path: str | os.PathLike, frame_id: int = 0,
               sequence_id: int = 0) -> PointCloud:
    """Load a binary ``.bin`` frame.

    Raises:
        FormatError: byte length is not a multiple of 16.
        ValidationError: the file contains non-finite values (offending
            point indices are listed in the message).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: byte length {len(raw)} is not divisible by {POINT_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    bad = np.flatnonzero(~np.isfinite(records).all(axis=1))
    if bad.size:
        shown = ", ".join(str(i) for i in bad[:10])
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise ValidationError(f"{path}: non-finite values at point indices {shown}{more}")
    intensity = records[:, 3]
    out_of_range = (intensity < 0.0) | (intensity > 1.0)
    if np.any(out_of_range):
        log.warning("%s: clamped %d intensities to [0, 1]", path, int(out_of_range.sum()))
        intensity = np.clip(intensity, 0.0, 1.0)
    return PointCloud(xyz=records[:, :3], intensity=intensity,
                      frame_id=frame_id, sequence_id=sequence_id)


def save_frame(path: str | os.PathLike, pc: PointCloud) -> None:
    """Write a cloud as little-endian float32 ``(x, y, z, intensity)`` records."""
    records = np.empty((len(pc), 4), dtype="<f4")
    records[:, :3] = pc.xyz
    records[:, 3] = pc.intensity
    records.tofile(path)


def load_labels(path: str | os.PathLike) -> np.ndarray:
    """Load a ``.label`` file as a uint32 array (one id per point).

    Raises:
        FormatError: byte length is not a multiple of 4.
    """
    raw = Path(path).read_bytes()
    if len(raw) % 4 != 0:
        raise FormatError(f"{path}: byte length {len(raw)} is not divisible by 4")
    return np.frombuffer(raw, dtype="<u4").copy()


def save_labels(path: str | os.PathLike, labels: np.ndarray) -> None:
    np.ascontiguousarray(labels, dtype="<u4").tofile(path)


# ---------------------------------------------------------------------------
# PGM grayscale I/O (binary P5 only)
# ---------------------------------------------------------------------------


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ShapeError("PGM images are 2-D grayscale grids")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval; '#' starts a comment line.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(t.isdigit() for t in tokens):
        raise FormatError(f"{path}: width, height and maxval must be decimal integers")
    width, height, maxval = (int(t) for t in tokens)
    if width == 0 or height == 0:
        raise FormatError(f"{path}: empty image ({width}x{height})")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    if len(data) - pos < width * height:
        raise FormatError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return raster.reshape(height, width).copy()


# ---------------------------------------------------------------------------
# Range projection
# ---------------------------------------------------------------------------


def project_range_image(pc: PointCloud, width: int = DEFAULT_IMAGE_WIDTH,
                        height: int = DEFAULT_IMAGE_HEIGHT,
                        vfov: tuple[float, float] = (-25.0, 3.0)) -> RangeImage:
    """Project a cloud to a range image.

    Azimuth maps to columns over [-pi, pi), elevation to rows (top row =
    highest elevation). Points outside the vertical field of view are
    dropped; when several points land on one pixel the nearest wins.
    """
    if width < 1 or height < 1:
        raise DomainError("width and height must be >= 1")
    vfov_min, vfov_max = float(vfov[0]), float(vfov[1])
    if not vfov_min < vfov_max:
        raise DomainError(f"vfov must satisfy min < max, got {vfov}")

    grid = np.zeros((height, width), dtype=np.float32)
    if len(pc) == 0:
        return RangeImage(width=width, height=height, values=grid)

    xyz = pc.xyz.astype(np.float64)
    r = np.linalg.norm(xyz, axis=1)
    valid = r > 0
    az = np.arctan2(xyz[:, 1], xyz[:, 0])
    el = np.degrees(np.arctan2(xyz[:, 2], np.hypot(xyz[:, 0], xyz[:, 1])))
    valid &= (el >= vfov_min) & (el <= vfov_max)

    cols = np.floor((az + np.pi) / (2.0 * np.pi) * width).astype(np.int64) % width
    rows = np.floor((vfov_max - el) / (vfov_max - vfov_min) * height).astype(np.int64)
    rows = np.clip(rows, 0, height - 1)

    idx = np.flatnonzero(valid)
    # Sort by descending range so the nearest point is written last per pixel.
    order = idx[np.argsort(-r[idx], kind="stable")]
    grid[rows[order], cols[order]] = r[order]
    return RangeImage(width=width, height=height, values=grid)


def range_to_grayscale(image: RangeImage, max_range: float) -> np.ndarray:
    """Quantize ranges to an 8-bit grid (0 stays 0; `max_range` maps to 255)."""
    if max_range <= 0:
        raise DomainError("max_range must be positive")
    scaled = np.clip(image.values.astype(np.float64) / max_range, 0.0, 1.0)
    return np.round(scaled * 255.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic labeled scene with a segment-wise motion profile.

    Classes occupy disjoint height and intensity bands, so they stay
    separable after voxelization. Frames are grouped into segments of
    `segment_length` frames; segment ``i`` translates the moving points by
    ``segment_speeds[i % len(segment_speeds)]`` meters per frame along +x,
    wrapping inside ``[-wrap_extent, wrap_extent]``. A speed of 0 yields
    bitwise-identical consecutive frames.
    """

    n_points: int = 600
    n_classes: int = 3
    segment_length: int = 8
    segment_speeds: tuple[float, ...] = (0.0, 1.0)
    moving_class: int = 2
    wrap_extent: float = 12.0
    image_width: int = 128
    image_height: int = 32
    vfov: tuple[float, float] = (-5.0, 60.0)
    # Per class: (rho_lo, rho_hi, z_lo, z_hi, intensity_lo, intensity_hi)
    class_bands: tuple[tuple[float, float, float, float, float, float], ...] = (
        (5.0, 7.0, -0.10, 0.10, 0.08, 0.12),
        (5.0, 7.0, 1.40, 1.60, 0.45, 0.55),
        (5.0, 7.0, 3.80, 4.20, 0.80, 0.90),
    )

    def __post_init__(self):
        if self.n_classes < 1 or self.n_classes > len(self.class_bands):
            raise DomainError(f"n_classes must be in [1, {len(self.class_bands)}]")
        if self.segment_length < 1 or not self.segment_speeds:
            raise DomainError("segment_length >= 1 and at least one segment speed required")


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
    return np.vstack(xyz), np.concatenate(intensity), np.concatenate(labels)


def synth_sequence(spec: SceneSpec, n_frames: int, seed: int,
                   sequence_id: int = 0) -> list[tuple[PointCloud, RangeImage]]:
    """Deterministic synthetic sequence of labeled frames plus range renders."""
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    xyz0, intensity, labels = _base_scene(spec, rng)
    moving = labels == min(spec.moving_class, spec.n_classes - 1)

    out: list[tuple[PointCloud, RangeImage]] = []
    offset = 0.0
    width = 2.0 * spec.wrap_extent
    for t in range(n_frames):
        if t > 0:
            speed = spec.segment_speeds[(t // spec.segment_length) % len(spec.segment_speeds)]
            offset += float(speed)
        xyz = xyz0.copy()
        if offset != 0.0:
            xyz[moving, 0] = np.mod(xyz[moving, 0] + offset + spec.wrap_extent, width) - spec.wrap_extent
        pc = PointCloud(xyz=xyz, intensity=intensity, labels=labels,
                        frame_id=t, sequence_id=sequence_id)
        ri = project_range_image(pc, width=spec.image_width, height=spec.image_height,
                                 vfov=spec.vfov)
        out.append((pc, ri))
    return out


# ---------------------------------------------------------------------------
# Sequence directory layout
# ---------------------------------------------------------------------------


def frame_path(root: str | os.PathLike, seq: str, frame: int) -> Path:
    return Path(root) / "sequences" / seq / "velodyne" / f"{frame:06d}.bin"


def label_path(root: str | os.PathLike, seq: str, frame: int) -> Path:
    return Path(root) / "sequences" / seq / "labels" / f"{frame:06d}.label"


def image_path(root: str | os.PathLike, seq: str, frame: int) -> Path:
    return Path(root) / "sequences" / seq / "image_2" / f"{frame:06d}.pgm"


def list_sequence_frames(root: str | os.PathLike, seq: str) -> list[int]:
    """Sorted frame indices present in ``sequences/<seq>/velodyne``."""
    vdir = Path(root) / "sequences" / seq / "velodyne"
    return sorted(int(p.stem) for p in vdir.glob("*.bin"))
