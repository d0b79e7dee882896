"""Pseudo-label partitioning and contrastive mining of unreliable voxels.

Predicted voxels are split by Shannon entropy into a reliable group, which
receives hard argmax pseudo-labels, and an unreliable group, marked -1 in
one label array. Reliable labels can be further filtered class- and
range-balanced (keep the most confident fraction per class, independently
in near/mid/far radial bands). A labeled frame's ground truth is a label
array of the same kind with no -1, so anchors and negatives are mined from
both alike. Unreliable voxels are not discarded: for
classes ranked in the bottom half of a voxel's class probabilities, its
embedding is pushed into that class's fixed-capacity FIFO bank and later
serves as a negative sample in a temperature-scaled contrastive loss over
cosine similarities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import (DegenerateEmbeddingError, DomainError, ShapeError, ValidationError,
                     is_count, is_prob_rows)

__all__ = [
    "VoxelPredictions",
    "PseudoLabelSet",
    "MemoryBank",
    "ContrastiveConfig",
    "shannon_entropy",
    "entropy_partition",
    "crb_select",
    "build_anchor_set",
    "positive_center",
    "bank_push_negatives",
    "infonce_loss",
]

@dataclass(frozen=True)
class VoxelPredictions:
    """Per-voxel softmax rows and embeddings for one frame.

    Embeddings stay float32 or float64 as given (any other dtype becomes
    float64). `radii` (voxel center distance from the sensor axis, finite)
    enables range-balanced filtering; it is optional.
    """

    probs: np.ndarray               # (v, n_classes), rows sum to 1
    embeddings: np.ndarray          # (v, d) float32 or float64
    radii: np.ndarray | None = None

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        emb = np.ascontiguousarray(self.embeddings)
        if emb.dtype not in (np.float32, np.float64):
            emb = emb.astype(np.float64)
        if probs.ndim != 2:
            raise ShapeError("probs must be a (voxels, classes) matrix")
        if emb.ndim != 2 or len(emb) != len(probs):
            raise ShapeError("embeddings must align with probs rows")
        if not is_prob_rows(probs):
            raise ValidationError("probability rows must be nonnegative and sum to 1")
        if not np.isfinite(emb).all():
            raise ValidationError("embeddings must be finite")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "embeddings", emb)
        if self.radii is not None:
            radii = np.ascontiguousarray(self.radii, dtype=np.float64).reshape(-1)
            if len(radii) != len(probs):
                raise ShapeError("radii must align with probs rows")
            if not np.isfinite(radii).all():
                raise ValidationError("radii must be finite")
            object.__setattr__(self, "radii", radii)

    @property
    def n_voxels(self) -> int:
        return len(self.probs)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class PseudoLabelSet:
    """One frame's pseudo-labels: `labels` holds a voxel's class where it is
    reliable and -1 where it is unreliable, so the two groups are disjoint
    and cover the frame by construction. A frame's ground truth is a set
    with every voxel reliable.
    """

    labels: np.ndarray              # (v,) int64, read-only

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64).reshape(-1)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    # Read-only views of `labels` as voxel -> class and a voxel set; cached,
    # since a caller may index `reliable` once per voxel.
    @functools.cached_property
    def reliable(self) -> MappingProxyType:
        ids = np.flatnonzero(self.labels >= 0)
        return MappingProxyType(dict(zip(ids.tolist(), self.labels[ids].tolist())))

    @functools.cached_property
    def unreliable(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.labels < 0).tolist())

    def covers(self, n_voxels: int) -> bool:
        return len(self.labels) == n_voxels


def _check_class(class_id: int, n_classes: int) -> None:
    if not (is_count(class_id, 0) and class_id < n_classes):
        raise DomainError(f"class_id {class_id!r} out of range [0, {n_classes})")


@dataclass(frozen=True)
class ContrastiveConfig:
    """Thresholds for anchor mining and the contrastive loss. Its field is
    the setting callers vary; the class constants below it are the rest of
    the recipe, read the same way (``cfg.tau``). A constant becomes a field
    again in the change that adds a caller who sets it."""

    max_anchors: int = 128    # anchors used per class per step

    delta_p: ClassVar[float] = 0.7      # anchor confidence threshold
    tau: ClassVar[float] = 0.5          # softmax temperature
    n_negatives: ClassVar[int] = 8      # negatives per anchor (N - 1)
    capacity: ClassVar[int] = 256       # bank capacity per class

    def __post_init__(self):
        if not is_count(self.max_anchors):
            raise DomainError(f"max_anchors must be an integer >= 1, got {self.max_anchors!r}")


class MemoryBank:
    """Per-class FIFO queues of negative embeddings with a fixed capacity:
    each class holds one array of its newest rows, oldest first. A class id
    outside ``[0, n_classes)`` raises `DomainError`."""

    def __init__(self, n_classes: int, capacity: int = ContrastiveConfig.capacity):
        if not (is_count(n_classes) and is_count(capacity)):
            raise DomainError(f"n_classes and capacity must be integers >= 1, got "
                              f"{n_classes!r} and {capacity!r}")
        self.capacity = capacity
        self._rows: list[np.ndarray] = [np.empty((0, 0))] * n_classes

    @property
    def n_classes(self) -> int:
        return len(self._rows)

    def push(self, class_id: int, rows: np.ndarray) -> None:
        """Append one row ``(d,)`` or a block ``(n, d)``, evicting the oldest
        rows past `capacity`. Rows of another width than the class holds
        raise `ShapeError`."""
        _check_class(class_id, self.n_classes)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))[-self.capacity:]
        held = self._rows[class_id]
        if held.size and rows.shape[1:] != held.shape[1:]:
            raise ShapeError(f"class {class_id} holds rows {held.shape[1:]}, not {rows.shape[1:]}")
        kept = np.concatenate([held, rows])[-self.capacity:] if held.size else rows.copy()
        kept.setflags(write=False)
        self._rows[class_id] = kept

    def size(self, class_id: int) -> int:
        _check_class(class_id, self.n_classes)
        return len(self._rows[class_id])

    def newest(self, class_id: int, k: int) -> np.ndarray:
        """The `k` most recently pushed negatives, oldest of them first."""
        _check_class(class_id, self.n_classes)
        held = self._rows[class_id]
        if len(held) < k:
            raise ValidationError(f"class {class_id}: {len(held)} negatives < {k} requested")
        return held[len(held) - k:] if k else np.empty((0, 0))


# ---------------------------------------------------------------------------
# Entropy partition and class-range-balanced filtering
# ---------------------------------------------------------------------------


def shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats with the 0 * log 0 = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def entropy_partition(v: VoxelPredictions, percentile: float) -> PseudoLabelSet:
    """Split voxels at the given entropy percentile in [0, 100).

    Voxels whose entropy lies strictly above the percentile of the frame's
    entropy distribution become unreliable; the rest receive their argmax
    class as a reliable pseudo-label. Percentile 0 marks every voxel reliable.
    """
    if not 0.0 <= percentile < 100.0:
        raise DomainError(f"percentile must lie in [0, 100), got {percentile}")
    if v.n_voxels == 0:  # `argmax` has no answer for zero class columns
        return PseudoLabelSet(labels=np.empty(0, dtype=np.int64))
    h = shannon_entropy(v.probs)
    cut = np.percentile(h, percentile) if percentile > 0.0 else np.inf
    return PseudoLabelSet(labels=np.where(h > cut, -1, v.probs.argmax(axis=1)))


def crb_select(pls: PseudoLabelSet, v: VoxelPredictions,
               per_class_keep: float) -> PseudoLabelSet:
    """Keep only the most confident reliable voxels, balanced per class and range.

    Within each class and each radial band (near/mid/far thirds of the
    observed radius range; one band when radii are absent or all equal),
    the top ``ceil(per_class_keep * n)`` voxels by class probability stay
    reliable; the rest are demoted to the unreliable group of a new set
    (none at keep 1.0). Ties prefer the lower voxel id: one sort orders the
    voxels by group, confidence descending and id, and a voxel's rank is its
    offset in its group. Labels not one per voxel of `v` raise `ShapeError`.
    """
    if not 0.0 < per_class_keep <= 1.0:
        raise DomainError(f"per_class_keep must lie in (0, 1], got {per_class_keep}")
    _check_aligned(v, pls)
    ids = np.flatnonzero(pls.labels >= 0)
    classes = pls.labels[ids]
    r = v.radii[ids] if v.radii is not None else np.zeros(ids.size)
    lo, hi = r.min(initial=np.inf), r.max(initial=-np.inf)
    band = np.minimum(np.floor((r - lo) / (hi - lo if hi > lo else np.inf) * 3), 2)
    group = classes * 3 + band.astype(np.int64)
    order = np.lexsort((ids, -v.probs[ids, classes], group))
    sorted_group = group[order]
    first = np.searchsorted(sorted_group, sorted_group)
    size = np.searchsorted(sorted_group, sorted_group, side="right") - first
    demoted = np.arange(ids.size) - first >= np.ceil(per_class_keep * size)
    labels = pls.labels.copy()
    labels[ids[order[demoted]]] = -1
    return PseudoLabelSet(labels=labels)


# ---------------------------------------------------------------------------
# Anchors, positives, negatives
# ---------------------------------------------------------------------------


def _check_aligned(v: VoxelPredictions, pls: PseudoLabelSet) -> None:
    if len(pls.labels) != v.n_voxels:
        raise ShapeError(f"{len(pls.labels)} pseudo-labels for {v.n_voxels} voxels")


def build_anchor_set(v: VoxelPredictions, pls: PseudoLabelSet,
                     cfg: ContrastiveConfig, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Voxel ids and embeddings eligible as anchors for `class_id`.

    A voxel qualifies when its label in `pls` equals the class and its
    softmax probability for the class exceeds the confidence threshold.
    Returns at most `cfg.max_anchors` anchors (lowest voxel ids first). A
    class id outside ``[0, n_classes)`` raises `DomainError`.
    """
    _check_class(class_id, v.n_classes)
    _check_aligned(v, pls)
    eligible = np.flatnonzero((pls.labels == class_id) & (v.probs[:, class_id] > cfg.delta_p))
    eligible = eligible[: cfg.max_anchors]
    return eligible, v.embeddings[eligible]


def positive_center(anchors: np.ndarray | Tensor):
    """Mean anchor embedding, or None when no anchors exist (skip the class)."""
    t = as_tensor(anchors)
    if t.shape[0] == 0:
        return None
    return t.mean(axis=0)


def bank_push_negatives(bank: MemoryBank, v: VoxelPredictions, pls: PseudoLabelSet,
                        class_id: int) -> MemoryBank:
    """Push unreliable voxels whose probability rank for `class_id` is in the
    bottom half of their class distribution; oldest entries are evicted. The
    rank counts the classes of lower probability, and of equal probability
    and lower id: its place in a stable ascending sort of the row."""
    _check_class(class_id, v.n_classes)
    _check_aligned(v, pls)
    ids = np.flatnonzero(pls.labels < 0)
    probs = v.probs[ids]
    own = probs[:, class_id:class_id + 1]
    rank = (probs < own).sum(axis=1) + (probs[:, :class_id] == own).sum(axis=1)
    # Only the newest `capacity` rows would survive the push; gather no more.
    bank.push(class_id, v.embeddings[ids[rank < math.ceil(v.n_classes / 2)][-bank.capacity:]])
    return bank


# ---------------------------------------------------------------------------
# Contrastive loss
# ---------------------------------------------------------------------------


def _norms(t: Tensor, what: str) -> Tensor:
    sq = (t * t).sum(axis=-1)
    if np.any(sq.data <= 0.0):
        raise DegenerateEmbeddingError(f"zero-norm {what} embedding in cosine similarity")
    return sq ** 0.5


def infonce_loss(anchors_by_class: dict[int, Tensor | np.ndarray],
                 positives_by_class: dict[int, Tensor | np.ndarray],
                 bank: MemoryBank, cfg: ContrastiveConfig) -> Tensor | None:
    """Temperature-scaled contrastive loss over cosine similarities.

    Per participating class: anchors are pulled toward the class positive
    and pushed from the `cfg.n_negatives` most recent bank entries. A class
    participates only with at least one anchor, a defined positive and
    enough negatives; with no participating class the loss is None.

    Returns a scalar autodiff tensor; gradients flow into anchors and
    positives passed as tensors (bank negatives are constants).
    """
    per_class = []
    for class_id in sorted(anchors_by_class):
        anchors = as_tensor(anchors_by_class[class_id])
        if anchors.shape[0] == 0:
            continue
        positive = positives_by_class.get(class_id)
        if positive is None:
            continue
        if bank.size(class_id) < cfg.n_negatives:
            continue
        positive = as_tensor(positive)
        negatives = bank.newest(class_id, cfg.n_negatives)

        a_norm = _norms(anchors, "anchor")
        p_norm = _norms(positive, "positive")
        neg_norms = np.linalg.norm(negatives, axis=1)
        if np.any(neg_norms <= 0.0):
            raise DegenerateEmbeddingError("zero-norm negative embedding in cosine similarity")

        cos_pos = (anchors * positive).sum(axis=1) / (a_norm * p_norm)
        cos_neg = (anchors @ negatives.T) / (a_norm.reshape((-1, 1)) * neg_norms)

        pos_term = (cos_pos * (1.0 / cfg.tau)).exp()
        neg_terms = (cos_neg * (1.0 / cfg.tau)).exp().sum(axis=1)
        per_class.append(((pos_term / (pos_term + neg_terms)).log() * -1.0).mean())

    if not per_class:
        return None
    total = per_class[0]
    for term in per_class[1:]:
        total = total + term
    return total * (1.0 / len(per_class))
