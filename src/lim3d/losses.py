"""Loss heads: Jaccard-extension supervised loss, KL consistency, composite.

All losses accept autodiff tensors and return scalar tensors, so gradient
checks and training share one code path. Plain arrays are wrapped as
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import DomainError, ValidationError

__all__ = ["LossConfig", "lovasz_softmax", "kl_consistency", "total_loss"]

STAGES = ("train", "pseudo_label", "distill")
_ROW_TOL = 1e-5


@dataclass(frozen=True)
class LossConfig:
    """Composite-loss weights and the training stage gating the contrastive term.

    The contrastive term enters with weight `lambda_c` in the distill stage
    and 0 in the others.
    """

    kappa: float = 0.99
    lambda_u: float = 1.0
    lambda_c: float = 0.3
    stage: str = "train"

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise DomainError("kappa must lie in [0, 1]")
        if self.lambda_u < 0 or self.lambda_c < 0:
            raise DomainError("loss weights must be nonnegative")
        if self.stage not in STAGES:
            raise DomainError(f"stage must be one of {STAGES}")

    @property
    def contrastive_weight(self) -> float:
        return self.lambda_c if self.stage == "distill" else 0.0


def _jaccard_grad(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient weights of the Jaccard-loss extension for sorted errors."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if len(jaccard) > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(probs: Tensor | np.ndarray, labels: np.ndarray) -> Tensor:
    """Smooth extension of the per-class Jaccard loss over softmax outputs.

    `probs` is a (voxels, classes) matrix of probabilities; `labels` hard
    class ids. At binary corners (hard 0/1 predictions) the value equals
    one minus the Jaccard index of the foreground class. Averaged over the
    classes present in the labels.
    """
    probs = as_tensor(probs)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = probs.shape
    if labels.shape != (n,):
        raise ValidationError(f"labels shape {labels.shape} does not match {n} rows")
    if n and not 0 <= labels.min() <= labels.max() < c:
        raise ValidationError(f"labels must be class ids in [0, {c})")
    if n == 0:
        return Tensor(0.0)
    terms = []
    for k in np.unique(labels).tolist():
        fg = (labels == k).astype(np.float64)
        p_k = probs.take([k], axis=1).reshape((n,))
        errors = (Tensor(fg) - p_k).abs()
        perm = np.argsort(-errors.data, kind="stable")
        weights = _jaccard_grad(fg[perm])
        terms.append((errors.take(perm) * Tensor(weights)).sum())
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def kl_consistency(student_probs: Tensor | np.ndarray,
                   teacher_probs: np.ndarray) -> Tensor:
    """Mean over voxels of KL(teacher || student) on probability rows."""
    student = as_tensor(student_probs)
    teacher = np.asarray(teacher_probs, dtype=np.float64)
    if student.shape != teacher.shape:
        raise ValidationError(f"shapes differ: {student.shape} vs {teacher.shape}")
    for name, arr in (("student", student.data), ("teacher", teacher)):
        if arr.size and (arr.min() < 0 or np.abs(arr.sum(axis=1) - 1.0).max() > _ROW_TOL):
            raise ValidationError(f"{name} rows must be probability vectors")
    if teacher.size == 0:
        return Tensor(0.0)
    # 0 * log 0 = 0; the teacher entropy term is a constant.
    t_entropy = float(np.sum(np.where(teacher > 0, teacher * np.log(np.where(teacher > 0, teacher, 1.0)), 0.0)))
    # Entries with zero teacher mass are shifted inside the log so they cannot
    # produce nan; their factor is 0 and their gradient vanishes either way.
    shift = Tensor((teacher == 0).astype(np.float64))
    cross = (Tensor(teacher) * (student + shift).log()).sum()
    return (Tensor(t_entropy) - cross) * (1.0 / teacher.shape[0])


def total_loss(ls, lu, lc, cfg: LossConfig):
    """``ls + lambda_u * lu + w_c * lc`` with the contrastive weight gated to
    the distillation stage. Outside it (or with ``lc=None``) the contrastive
    input does not enter the graph at all, so its gradient is exactly zero."""
    total = as_tensor(ls) + cfg.lambda_u * as_tensor(lu)
    w = cfg.contrastive_weight
    if lc is not None and w != 0.0:
        total = total + w * as_tensor(lc)
    return total
