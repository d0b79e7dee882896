"""Point-cloud frames and their files: binary frames, labels and PGM images.

This module owns `PointCloud`, the frame formats below, `UNRELIABLE_LABEL`
and the sequence directory layout. The synthetic scene that stands in for
recorded frames, and its range projection, live in `lim3d.scene`.

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

A `PointCloud` is a frozen dataclass whose arrays are marked read-only at
construction, so frames can share arrays without copying.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, ValidationError

__all__ = [
    "PointCloud",
    "load_frame",
    "save_frame",
    "load_labels",
    "save_labels",
    "read_pgm",
    "write_pgm",
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
        if (start := pos) == 2:
            raise FormatError(f"{path}: P5 must be followed by whitespace or a '#' comment")
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
