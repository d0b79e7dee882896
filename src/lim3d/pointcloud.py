"""Point-cloud frames: binary I/O, range projection, and synthetic sequences.

File formats
------------
* ``.bin`` frames: four little-endian ``float32`` values per point in the
  order ``(x, y, z, intensity)``, 16 bytes per point.
* ``.label`` files: one little-endian ``uint32`` class id per point, or
  `UNRELIABLE_LABEL` (``0xFFFFFFFF``) for a point without a reliable label.
* ``.pgm`` images: binary 8-bit grayscale (``P5``), used as the external
  image format for redundancy scoring.

Frames live under ``sequences/<seq>/velodyne/<frame>.bin`` with labels in
``sequences/<seq>/labels/<frame>.label`` and grayscale renders in
``sequences/<seq>/image_2/<frame>.pgm``.

All containers are frozen dataclasses whose arrays are marked read-only at
construction, so frames can share arrays without copying. A range image
is a plain read-only ``(height, width)`` float32 array of ranges in meters;
`ranges_to_grayscale` quantizes a sequence of them by its farthest return.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, ShapeError, ValidationError, is_count

__all__ = [
    "PointCloud",
    "SceneSpec",
    "load_frame",
    "save_frame",
    "load_labels",
    "save_labels",
    "read_pgm",
    "write_pgm",
    "project_range_image",
    "ranges_to_grayscale",
    "synth_sequence",
    "synth_frames",
    "frame_path",
    "label_path",
    "image_path",
    "list_sequence_frames",
]

log = logging.getLogger(__name__)

POINT_RECORD_BYTES = 16

_FLOAT32_MAX = float(np.finfo(np.float32).max)
# The .label id of a point without a reliable label; `save_labels` writes -1 as it.
UNRELIABLE_LABEL = 0xFFFFFFFF


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PointCloud:
    """One frame of points ``(x, y, z, intensity)`` with optional labels.

    `extra_features` holds per-point feature columns appended after load
    (for example reflectivity histograms); voxelization reduces them like
    any other channel. Every array is read-only once every check has passed,
    and shared (the caller's array frozen too) if already in its stored dtype
    and layout; a refused array is left as it was. Non-finite coordinates,
    and a point whose range float32 cannot hold, raise `ValidationError`.
    """

    xyz: np.ndarray                      # (n, 3) float32
    intensity: np.ndarray                # (n,) float32 in [0, 1]
    labels: np.ndarray | None = None     # (n,) int64 class ids
    sequence_id: int = 0
    extra_features: np.ndarray | None = None  # (n, k) float32

    def __post_init__(self):
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float32)
        inten = np.ascontiguousarray(self.intensity, dtype=np.float32)
        labels = None if self.labels is None else np.ascontiguousarray(self.labels, np.int64)
        extra = (None if self.extra_features is None
                 else np.ascontiguousarray(self.extra_features, dtype=np.float32))
        points = xyz.reshape(-1, 3)
        # Reductions only: NaN and inf show in them, and while every coordinate
        # stays within half of float32's maximum, every range fits float32.
        lo, hi = float(points.min(initial=0.0)), float(points.max(initial=0.0))
        if not np.isfinite(hi - lo):
            raise ValidationError("point coordinates must be finite")
        if max(hi, -lo) > _FLOAT32_MAX / 2 and (
                np.linalg.norm(points.astype(np.float64), axis=1) > _FLOAT32_MAX).any():
            raise ValidationError("a point's range overflows float32")
        if inten.size != len(points):
            raise ShapeError(f"{inten.size} intensities for {len(points)} points")
        if labels is not None and labels.size != len(points):
            raise ValidationError(f"{labels.size} labels for {len(points)} points")
        if extra is not None and (extra.ndim != 2 or len(extra) != len(points)):
            raise ShapeError(f"extra_features shape {extra.shape} does not match {len(points)} points")
        for name, arr, shape in (("xyz", xyz, points.shape), ("intensity", inten, -1),
                                 ("labels", labels, -1), ("extra_features", extra, np.shape(extra))):
            if arr is not None:
                object.__setattr__(self, name, _frozen(arr).reshape(shape))

    def __len__(self) -> int:
        return len(self.xyz)


# ---------------------------------------------------------------------------
# Binary frame and label I/O
# ---------------------------------------------------------------------------


def load_frame(path: str | os.PathLike) -> PointCloud:
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
    return PointCloud(xyz=records[:, :3], intensity=intensity)


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
    """Write one id per point as a ``.label`` file. Ids are integers in
    ``[0, UNRELIABLE_LABEL]``; -1 is written as `UNRELIABLE_LABEL`.

    Raises:
        ValidationError: an id is not an integer, or is below -1 or above
            `UNRELIABLE_LABEL`; no file is written.
    """
    ids = np.asarray(labels)
    if ids.dtype.kind not in "iu":
        raise ValidationError(f".label ids must be integers, got dtype {ids.dtype}")
    bad = (ids < -1) | (ids > UNRELIABLE_LABEL)
    if bad.any():
        raise ValidationError(f".label ids must lie in [-1, {UNRELIABLE_LABEL}]; "
                              f"{int(bad.sum())} do not, the first is {ids[bad][0]}")
    # The cast to uint32 is modular, so -1 becomes UNRELIABLE_LABEL.
    np.ascontiguousarray(ids, dtype="<u4").tofile(path)


# ---------------------------------------------------------------------------
# PGM grayscale I/O (binary P5 only)
# ---------------------------------------------------------------------------


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    """Write a 2-D grid of integers in [0, 255] as a binary 8-bit PGM.

    Raises:
        ShapeError: the grid is not 2-D, or has no rows or no columns.
        ValidationError: a value is not an integer in [0, 255].
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ShapeError("PGM images are 2-D grayscale grids")
    if img.size == 0:
        raise ShapeError(f"PGM images need at least one row and one column, got shape {img.shape}")
    if img.dtype != np.uint8:
        if img.dtype.kind not in "biuf":
            raise ValidationError(f"PGM pixels must be integers in [0, 255], got dtype {img.dtype}")
        bad = ~((img >= 0) & (img <= 255) & (img == np.floor(img)))
        if bad.any():
            raise ValidationError(f"PGM pixels must be integers in [0, 255]; {int(bad.sum())} "
                                  f"are not, the first is {img[bad][0]}")
    img = np.ascontiguousarray(img, dtype=np.uint8)
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
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic labeled scene with a segment-wise motion profile.

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
        if not is_count(self.n_points):
            raise DomainError(f"n_points must be an integer >= 1, got {self.n_points!r}")
        if self.n_classes < 1 or self.n_classes > len(self.class_bands):
            raise DomainError(f"n_classes must be in [1, {len(self.class_bands)}]")
        if not (is_count(self.moving_class, 0) and self.moving_class < self.n_classes):
            raise DomainError(f"moving_class must lie in [0, {self.n_classes}), "
                              f"got {self.moving_class!r}")
        if self.segment_length < 1 or not self.segment_speeds:
            raise DomainError("segment_length >= 1 and at least one segment speed required")


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

    cols = np.floor((az + np.pi) / (2.0 * np.pi) * width).astype(np.int64) % width
    rows = np.floor((vfov_max - el) / (vfov_max - vfov_min) * height).astype(np.int64)
    rows = np.clip(rows, 0, height - 1)
    return (rows * width + cols)[valid], r[valid].astype(np.float32)


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
    """Deterministic synthetic sequence of labeled frames, each with its range
    image, made one frame at a time as the iterator is advanced.

    Every image equals ``project_range_image(pc, spec.image_width,
    spec.image_height, spec.vfov)`` byte for byte, but only the moving class
    is projected per frame: the still classes are z-buffered once per
    sequence and each frame scatter-mins its moving points into a copy of
    that buffer. A frame whose segment speed is 0 yields the previous
    frame's cloud and range image, so consecutive frames of a still segment
    stay bitwise identical.

    Raises:
        DomainError: at the call, before any frame is made: ``n_frames``
            below 1, or an image size or ``vfov`` that `project_range_image`
            would reject.
        ValidationError: while iterating, a point whose range float32
            cannot hold.
    """
    if n_frames < 1:
        raise DomainError("n_frames must be >= 1")
    _check_image(spec.image_width, spec.image_height, spec.vfov)
    return _synth_frames(spec, n_frames, seed, sequence_id)


def _synth_frames(spec: SceneSpec, n_frames: int, seed: int,
                  sequence_id: int) -> Iterator[tuple[PointCloud, np.ndarray]]:
    rng = np.random.default_rng(seed)
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
            pc = PointCloud(xyz=xyz, intensity=intensity, labels=labels, sequence_id=sequence_id)
            if t == 0:
                still = _zbuffer(*_pixel_ranges(pc.xyz[~moving], w, h, spec.vfov), w * h)
            pix, r = _pixel_ranges(pc.xyz[moving], w, h, spec.vfov)
            ri = _range_image(_zbuffer(pix, r, w * h, base=still), w, h)
        yield pc, ri


def synth_sequence(spec: SceneSpec, n_frames: int, seed: int,
                   sequence_id: int = 0) -> list[tuple[PointCloud, np.ndarray]]:
    """`synth_frames` as a list: the whole sequence at once."""
    return list(synth_frames(spec, n_frames, seed, sequence_id))


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
