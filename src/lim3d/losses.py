"""Loss heads: Jaccard-extension supervised loss, KL consistency, composite.

All losses accept autodiff tensors and return scalar tensors, so gradient
checks and training share one code path. Plain arrays are wrapped as
constants. `lovasz_softmax` and `kl_consistency` are one autodiff node
each; their backward repeats, in order, the numpy operations of the
primitive graph they replace, so values and gradients match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import DomainError, ValidationError, is_prob_rows

__all__ = ["LossConfig", "lovasz_softmax", "kl_consistency", "total_loss"]

STAGES = ("train", "distill")


@dataclass(frozen=True)
class LossConfig:
    """Composite-loss weights and the training stage gating the contrastive term.

    `contrastive_weight` is the one rule that ties the contrastive term to a
    stage: `lambda_c` in the distill stage and 0 in the train stage.
    """

    kappa: float = 0.99
    lambda_u: float = 1.0
    lambda_c: float = 0.3
    stage: str = "train"

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise DomainError("kappa must lie in [0, 1]")
        if not (0.0 <= self.lambda_u < np.inf and 0.0 <= self.lambda_c < np.inf):
            raise DomainError("loss weights must be nonnegative and finite")
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
    p = probs.data
    classes = np.flatnonzero(np.bincount(labels, minlength=c)).tolist()
    scale = 1.0 / len(classes)
    total, saved = None, []
    for k in classes:
        fg = (labels == k).astype(np.float64)
        diff = fg - p[:, k]
        errors = np.abs(diff)
        perm = np.argsort(-errors, kind="stable")
        weights = _jaccard_grad(fg[perm])
        term = (errors[perm] * weights).sum()
        total = term if total is None else total + term
        saved.append((k, perm, weights, np.sign(diff)))

    def backward(g):
        g_term = g * scale
        grad = np.zeros(p.shape, p.dtype)
        for k, perm, weights, sign in saved:
            # Sorted errors back to voxel order. `perm` places each value once;
            # adding into zeros turns -0.0 into 0.0, as `take`'s backward does.
            g_errors = np.zeros(n)
            np.add.at(g_errors, perm, g_term * weights)
            grad[:, k] += (g_errors * sign).astype(p.dtype, copy=False) * -1.0
        return (grad,)

    return Tensor(total * scale, _parents=(probs,), _backward=backward)


def kl_consistency(student_probs: Tensor | np.ndarray,
                   teacher_probs: np.ndarray) -> Tensor:
    """Mean over voxels of KL(teacher || student) on probability rows."""
    student = as_tensor(student_probs)
    teacher = np.asarray(teacher_probs, dtype=np.float64)
    if student.shape != teacher.shape:
        raise ValidationError(f"shapes differ: {student.shape} vs {teacher.shape}")
    for name, arr in (("student", student.data), ("teacher", teacher)):
        if not is_prob_rows(arr):
            raise ValidationError(f"{name} rows must be probability vectors")
    if teacher.size == 0:
        return Tensor(0.0)
    # 0 * log 0 = 0; the teacher entropy term is a constant.
    t_entropy = float(np.sum(np.where(teacher > 0, teacher * np.log(np.where(teacher > 0, teacher, 1.0)), 0.0)))
    # Entries with zero teacher mass are shifted inside the log so they cannot
    # produce nan; their factor is 0 and their gradient vanishes either way.
    shifted = student.data + (teacher == 0).astype(np.float64)
    cross = (teacher * np.log(shifted)).sum()
    scale = 1.0 / teacher.shape[0]

    def backward(g):
        return ((g * scale * -1.0) * teacher / shifted,)

    return Tensor((t_entropy - cross) * scale, _parents=(student,), _backward=backward)


def total_loss(ls, lu, lc, cfg: LossConfig):
    """``ls + lambda_u * lu + w_c * lc`` with the contrastive weight gated to
    the distillation stage. Outside it (or with ``lc=None``) the contrastive
    input does not enter the graph at all, so its gradient is exactly zero."""
    total = as_tensor(ls) + cfg.lambda_u * as_tensor(lu)
    w = cfg.contrastive_weight
    if lc is not None and w != 0.0:
        total = total + w * as_tensor(lc)
    return total
