"""Pseudo-label partitioning and contrastive mining of unreliable voxels.

Predicted voxels are split by Shannon entropy into a reliable group, which
receives hard argmax pseudo-labels, and an unreliable group. Reliable
labels can be further filtered class- and range-balanced (keep the most
confident fraction per class, independently in near/mid/far radial
bands). Unreliable voxels are not discarded: for classes ranked in the
bottom half of a voxel's class probabilities, its embedding is pushed into
that class's fixed-capacity FIFO bank and later serves as a negative
sample in a temperature-scaled contrastive loss over cosine similarities.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import (DegenerateEmbeddingError, DomainError, ShapeError,
                     ValidationError)

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

_PROB_TOL = 1e-5


@dataclass(frozen=True)
class VoxelPredictions:
    """Per-voxel softmax rows and embeddings for one frame.

    `labels` holds ground-truth class ids with -1 marking voxels without
    ground truth. `radii` (voxel center distance from the sensor axis)
    enables range-balanced filtering; it is optional.
    """

    probs: np.ndarray               # (v, n_classes), rows sum to 1
    embeddings: np.ndarray          # (v, d)
    labels: np.ndarray | None = None
    radii: np.ndarray | None = None

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        emb = np.ascontiguousarray(self.embeddings, dtype=np.float64)
        if probs.ndim != 2:
            raise ShapeError("probs must be a (voxels, classes) matrix")
        if emb.ndim != 2 or len(emb) != len(probs):
            raise ShapeError("embeddings must align with probs rows")
        if len(probs) and (probs.min() < 0 or
                           np.abs(probs.sum(axis=1) - 1.0).max() > _PROB_TOL):
            raise ValidationError("probability rows must be nonnegative and sum to 1")
        if not np.isfinite(emb).all():
            raise ValidationError("embeddings must be finite")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "embeddings", emb)
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int64).reshape(-1)
            if len(labels) != len(probs):
                raise ShapeError("labels must align with probs rows")
            object.__setattr__(self, "labels", labels)
        if self.radii is not None:
            radii = np.ascontiguousarray(self.radii, dtype=np.float64).reshape(-1)
            if len(radii) != len(probs):
                raise ShapeError("radii must align with probs rows")
            object.__setattr__(self, "radii", radii)

    @property
    def n_voxels(self) -> int:
        return len(self.probs)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class PseudoLabelSet:
    """Disjoint reliable (voxel -> class) and unreliable partitions."""

    reliable: dict[int, int]
    unreliable: frozenset[int]
    entropy: np.ndarray

    def __post_init__(self):
        overlap = set(self.reliable) & self.unreliable
        if overlap:
            raise ValidationError(f"voxels in both partitions: {sorted(overlap)[:5]}")
        object.__setattr__(self, "unreliable", frozenset(self.unreliable))

    def covers(self, n_voxels: int) -> bool:
        return set(self.reliable) | self.unreliable == set(range(n_voxels))


class MemoryBank:
    """Per-class FIFO queues of negative embeddings with a fixed capacity."""

    def __init__(self, n_classes: int, capacity: int = 256):
        if n_classes < 1 or capacity < 1:
            raise DomainError("n_classes and capacity must be >= 1")
        self.capacity = capacity
        self._queues: list[deque[np.ndarray]] = [deque(maxlen=capacity) for _ in range(n_classes)]

    @property
    def n_classes(self) -> int:
        return len(self._queues)

    def push(self, class_id: int, embedding: np.ndarray) -> None:
        self._queues[class_id].append(np.array(embedding, dtype=np.float64))

    def size(self, class_id: int) -> int:
        return len(self._queues[class_id])

    def newest(self, class_id: int, k: int) -> np.ndarray:
        """The `k` most recently pushed negatives, oldest of them first."""
        q = self._queues[class_id]
        if len(q) < k:
            raise ValidationError(f"class {class_id}: {len(q)} negatives < {k} requested")
        return np.stack(list(q)[-k:]) if k else np.empty((0, 0))


@dataclass(frozen=True)
class ContrastiveConfig:
    """Thresholds for anchor mining and the contrastive loss."""

    delta_p: float = 0.7      # anchor confidence threshold
    tau: float = 0.5          # softmax temperature
    n_negatives: int = 8      # negatives per anchor (N - 1)
    capacity: int = 256       # bank capacity per class
    max_anchors: int = 128    # anchors used per class per step

    def __post_init__(self):
        if not 0.0 < self.delta_p < 1.0:
            raise DomainError("delta_p must lie in (0, 1)")
        if self.tau <= 0:
            raise DomainError("tau must be positive")
        if self.n_negatives < 1:
            raise DomainError("at least one negative is required")
        if self.capacity < 1 or self.max_anchors < 1:
            raise DomainError("capacity and max_anchors must be >= 1")


# ---------------------------------------------------------------------------
# Entropy partition and class-range-balanced filtering
# ---------------------------------------------------------------------------


def shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """Row-wise entropy in nats with the 0 * log 0 = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def entropy_partition(v: VoxelPredictions, percentile: float = 80.0) -> PseudoLabelSet:
    """Split voxels at the given entropy percentile.

    Voxels whose entropy lies strictly above the percentile of the frame's
    entropy distribution become unreliable; the rest receive their argmax
    class as a reliable pseudo-label.
    """
    if not 0.0 < percentile < 100.0:
        raise DomainError(f"percentile must lie in (0, 100), got {percentile}")
    h = shannon_entropy(v.probs)
    if len(h) == 0:
        return PseudoLabelSet(reliable={}, unreliable=frozenset(), entropy=h)
    threshold = np.percentile(h, percentile)
    unreliable = np.flatnonzero(h > threshold)
    reliable_ids = np.flatnonzero(h <= threshold)
    argmax = v.probs.argmax(axis=1)
    reliable = {int(i): int(argmax[i]) for i in reliable_ids}
    return PseudoLabelSet(reliable=reliable, unreliable=frozenset(int(i) for i in unreliable),
                          entropy=h)


def crb_select(pls: PseudoLabelSet, v: VoxelPredictions,
               per_class_keep: float) -> PseudoLabelSet:
    """Keep only the most confident reliable voxels, balanced per class and range.

    Within each class and each radial band (near/mid/far thirds of the
    observed radius range, or a single band when radii are absent), the top
    ``ceil(per_class_keep * n)`` voxels by class probability stay reliable;
    the rest are demoted to the unreliable group. Ties prefer the lower
    voxel id.
    """
    if not 0.0 < per_class_keep <= 1.0:
        raise DomainError(f"per_class_keep must lie in (0, 1], got {per_class_keep}")
    if per_class_keep == 1.0:
        return pls

    ids = np.array(sorted(pls.reliable), dtype=np.int64)
    if ids.size == 0:
        return pls
    classes = np.array([pls.reliable[int(i)] for i in ids], dtype=np.int64)

    if v.radii is not None:
        r = v.radii[ids]
        lo, hi = float(r.min()), float(r.max())
        if hi > lo:
            band = np.minimum(np.floor((r - lo) / (hi - lo) * 3).astype(np.int64), 2)
        else:
            band = np.zeros(ids.size, dtype=np.int64)
    else:
        band = np.zeros(ids.size, dtype=np.int64)

    keep: set[int] = set()
    for cls in np.unique(classes):
        for b in np.unique(band):
            mask = (classes == cls) & (band == b)
            group = ids[mask]
            if group.size == 0:
                continue
            conf = v.probs[group, cls]
            n_keep = math.ceil(per_class_keep * group.size)
            order = np.lexsort((group, -conf))  # confidence desc, id asc on ties
            keep.update(int(g) for g in group[order[:n_keep]])

    reliable = {i: c for i, c in pls.reliable.items() if i in keep}
    demoted = set(pls.reliable) - keep
    return PseudoLabelSet(reliable=reliable,
                          unreliable=frozenset(pls.unreliable | demoted),
                          entropy=pls.entropy)


# ---------------------------------------------------------------------------
# Anchors, positives, negatives
# ---------------------------------------------------------------------------


def effective_labels(v: VoxelPredictions, pls: PseudoLabelSet) -> np.ndarray:
    """Ground truth where present, reliable pseudo-label otherwise, else -1."""
    out = np.full(v.n_voxels, -1, dtype=np.int64)
    for i, c in pls.reliable.items():
        out[i] = c
    if v.labels is not None:
        has_gt = v.labels >= 0
        out[has_gt] = v.labels[has_gt]
    return out


def build_anchor_set(v: VoxelPredictions, pls: PseudoLabelSet,
                     cfg: ContrastiveConfig, class_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Voxel ids and embeddings eligible as anchors for `class_id`.

    A voxel qualifies when its effective label equals the class and its
    softmax probability for the class exceeds the confidence threshold.
    Returns at most `cfg.max_anchors` anchors (lowest voxel ids first).
    """
    labels = effective_labels(v, pls)
    eligible = np.flatnonzero((labels == class_id) & (v.probs[:, class_id] > cfg.delta_p))
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
    bottom half of their class distribution; oldest entries are evicted."""
    if not 0 <= class_id < v.n_classes:
        raise DomainError(f"class_id {class_id} out of range")
    ids = np.array(sorted(pls.unreliable), dtype=np.int64)
    order = np.argsort(v.probs[ids], axis=1, kind="stable")
    rank = (order == class_id).argmax(axis=1)
    for voxel in ids[rank < math.ceil(v.n_classes / 2)]:
        bank.push(class_id, v.embeddings[voxel])
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
