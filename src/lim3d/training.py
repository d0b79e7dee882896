"""Mean-teacher training: EMA weights, metrics, and the three-stage toy run.

The semi-supervised half is two steps. In `label_frame` the teacher
predicts a frame, splits its voxels by entropy and filters the reliable ones
class-and-range-balanced. In `train_step` the student takes one update on
the composite loss (supervised Jaccard extension, KL consistency to the
teacher, and in the distill stage the contrastive term fed by a FIFO bank
of unreliable-voxel negatives), then the teacher tracks it by EMA.

`run_toy_pipeline` composes them. Each frame's training labels live in one
place, `Frame.pseudo`: the frames that the redundancy-driven sampling plan
picks get their ground truth there, and stage 1 trains on them; stage 2
labels the other frames; stage 3 keeps training the stage-1 student on every
frame with labels, ground truth or pseudo-labels alike.

A trained network only works on its training input: the features and
voxels that `prepare_frame` builds from a cloud with one grid and one
reflectivity config. `save_model` records that contract next to the
weights, and `load_model` returns it with the network.
"""

from __future__ import annotations

import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax
from .errors import DivergenceError, DomainError, FormatError, ShapeError, ValidationError
from .losses import LossConfig, kl_consistency, lovasz_softmax, total_loss
from .network import MiniSegNet, mini_backbone_topology, topology_cost
from .pointcloud import SceneSpec, ranges_to_grayscale, synth_sequence
from .pseudolabel import (ContrastiveConfig, MemoryBank, PseudoLabelSet,
                          VoxelPredictions, bank_push_negatives,
                          build_anchor_set, entropy_partition, crb_select,
                          infonce_loss, positive_center)
from .reflectivity import ReflecConfig, augment, coarse_histograms, normalize_reflectivity, reflectivity
from .sampling import calibrate_beta
from .sparseconv import Rulebook, build_rulebook
from .voxel import CylGridSpec, SparseVoxelTensor, voxelize

__all__ = [
    "ema_update",
    "confusion_matrix",
    "iou_per_class",
    "mean_iou",
    "SGD",
    "TOY_GRID",
    "ToyPipelineConfig",
    "Frame",
    "prepare_frame",
    "label_frame",
    "train_step",
    "run_toy_pipeline",
    "save_model",
    "load_model",
]

# The cylindrical grid of the toy scenes, `ToyPipelineConfig`'s default.
TOY_GRID = CylGridSpec(n_rho=10, n_phi=16, n_z=6, rho_max=20.0, z_range=(-1.0, 5.0))


# ---------------------------------------------------------------------------
# EMA and metrics
# ---------------------------------------------------------------------------


def ema_update(teacher: np.ndarray, student: np.ndarray, kappa: float) -> np.ndarray:
    """``kappa * teacher + (1 - kappa) * student`` elementwise."""
    teacher = np.asarray(teacher, dtype=np.float64)
    student = np.asarray(student, dtype=np.float64)
    if teacher.shape != student.shape:
        raise ShapeError(f"parameter layouts differ: {teacher.shape} vs {student.shape}")
    if not 0.0 <= kappa <= 1.0:
        raise DomainError("kappa must lie in [0, 1]")
    return kappa * teacher + (1.0 - kappa) * student


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, n_classes: int) -> np.ndarray:
    """Counts of ``(ground truth, prediction)`` pairs; ids must lie in [0, n_classes)."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ShapeError("prediction and ground truth lengths differ")
    for name, ids in (("prediction", pred), ("ground truth", gt)):
        if ids.size and not 0 <= ids.min() <= ids.max() < n_classes:
            raise ValidationError(f"{name} ids must lie in [0, {n_classes})")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (gt, pred), 1)
    return out


def iou_per_class(confusion: np.ndarray) -> np.ndarray:
    """Intersection over union per class; nan where the class never occurs."""
    confusion = np.asarray(confusion, dtype=np.float64)
    tp = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, tp / union, np.nan)


def mean_iou(confusion: np.ndarray) -> float:
    per_class = iou_per_class(confusion)
    return float(np.nanmean(per_class))


class SGD:
    """Plain momentum SGD over a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray | None]) -> None:
        for i, g in enumerate(grads):
            if g is None:
                continue
            self._velocity[i] = self.momentum * self._velocity[i] - self.lr * g
            self.params[i] = self.params[i] + self._velocity[i]


# ---------------------------------------------------------------------------
# Toy pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyPipelineConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    n_sequences: int = 1
    frames_per_sequence: int = 24
    heldout_fraction: float = 0.25
    labeled_fraction: float = 1.0
    subset_size: int = 8
    grid: CylGridSpec = TOY_GRID
    reflec: ReflecConfig | None = field(default_factory=lambda: ReflecConfig(
        n_bins=10, bin_grids=((4, 8), (8, 16), (16, 24))))
    widths: tuple[int, ...] = (16, 32, 64, 64)
    kernel_size: int = 3
    lr: float = 0.05
    momentum: float = 0.9
    steps_stage1: int = 280
    steps_stage3: int = 160
    kappa: float = 0.99
    lambda_u: float = 1.0
    lambda_c: float = 0.3
    percentile: float = 80.0
    per_class_keep: float = 0.9
    contrastive: ContrastiveConfig = field(default_factory=lambda: ContrastiveConfig(
        delta_p=0.7, tau=0.5, n_negatives=8, capacity=256, max_anchors=64))
    use_bank: bool = True
    stages: tuple[int, ...] = (1, 2, 3)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise DomainError("labeled_fraction must lie in (0, 1]")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise DomainError("heldout_fraction must lie in (0, 1)")
        if any(s not in (1, 2, 3) for s in self.stages):
            raise DomainError("stages must be a subset of (1, 2, 3)")
        if not 0.0 <= self.percentile < 100.0:
            raise DomainError("percentile must lie in [0, 100)")
        if not 0.0 < self.per_class_keep <= 1.0:
            raise DomainError("per_class_keep must lie in (0, 1]")


@dataclass
class Frame:
    """A cloud as the network sees it: voxels, their rulebook and radii.

    `pseudo` holds the frame's training labels, None until it has some:
    `run_toy_pipeline` sets it to the ground truth (every voxel reliable)
    for the frames its sampling plan picks, and to `label_frame`'s
    pseudo-labels for the others.
    """

    svt: SparseVoxelTensor
    rulebook: Rulebook
    radii: np.ndarray
    pseudo: PseudoLabelSet | None = None


def prepare_frame(pc, grid: CylGridSpec, reflec: ReflecConfig | None,
                  kernel_size: int = 3) -> Frame:
    """The network input for `pc`: reflectivity histograms appended to the
    point features (when `reflec` is given), voxelized on `grid`."""
    if reflec is not None:
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), reflec)
        pc = augment(pc, feats)
    svt = voxelize(pc, grid)
    rb = build_rulebook(svt.coords, svt.grid, kernel_size)
    radii = grid.voxel_centers(svt.coords)[:, 0]
    return Frame(svt=svt, rulebook=rb, radii=radii)


def label_frame(teacher: MiniSegNet, frame: Frame, percentile: float,
                per_class_keep: float) -> tuple[PseudoLabelSet, np.ndarray]:
    """The teacher's pseudo-labels for `frame`, and its class probabilities.

    Voxels above the `percentile` of the frame's entropy are unreliable;
    percentile 0 marks every voxel reliable. `crb_select` then keeps the
    `per_class_keep` most confident reliable voxels per class and range band.
    """
    probs, emb = teacher.predict(frame.svt, rulebook=frame.rulebook)
    vp = VoxelPredictions(probs=probs, embeddings=emb, radii=frame.radii)
    if percentile == 0.0:
        pls = PseudoLabelSet(labels=probs.argmax(axis=1))
    else:
        pls = entropy_partition(vp, percentile=percentile)
    return crb_select(pls, vp, per_class_keep), probs


def train_step(student: MiniSegNet, teacher: MiniSegNet, frame: Frame, opt: SGD,
               loss_cfg: LossConfig, bank: MemoryBank | None,
               contrastive: ContrastiveConfig) -> float:
    """One student update on `frame`, then the teacher's EMA update at
    ``loss_cfg.kappa``; returns the loss. The supervised term covers the
    reliable voxels of `frame.pseudo`, which holds ground truth or
    pseudo-labels alike. In the distill stage with a `bank`, the frame's
    unreliable voxels are pushed into it and the contrastive term joins,
    unless `frame.pseudo` is None.

    Raises:
        DivergenceError: the loss is not finite; no weight has changed.
    """
    params = student.param_tensors()
    logits, emb = student.forward(frame.svt, params=params, rulebook=frame.rulebook)
    probs = softmax(logits, axis=1)
    pls = frame.pseudo
    ids = np.flatnonzero(pls.labels >= 0) if pls is not None else []
    ls = lovasz_softmax(probs.take(ids), pls.labels[ids]) if len(ids) else Tensor(0.0)

    # Consistency with the teacher on every voxel of the frame.
    t_probs, _ = teacher.predict(frame.svt, rulebook=frame.rulebook)
    lu = kl_consistency(probs, t_probs)

    lc = None
    if bank is not None and loss_cfg.stage == "distill" and pls is not None:
        vp = VoxelPredictions(probs=probs.data, embeddings=emb.data, radii=frame.radii)
        for c in range(student.n_classes):
            bank_push_negatives(bank, vp, pls, c)
        anchors, positives = {}, {}
        for c in range(student.n_classes):
            a_ids, _ = build_anchor_set(vp, pls, contrastive, c)
            if len(a_ids):
                anchors[c] = emb.take(a_ids)
                positives[c] = positive_center(anchors[c])
        lc = infonce_loss(anchors, positives, bank, contrastive)

    loss = total_loss(ls, lu, lc, loss_cfg)
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"{loss_cfg.stage}: loss became non-finite")
    loss.backward()
    opt.step([p.grad for p in params])
    teacher.load_flat(ema_update(teacher.flat(), student.flat(), loss_cfg.kappa))
    return value


def run_toy_pipeline(cfg: ToyPipelineConfig,
                     sequences: list[list] | None = None,
                     model_path: str | None = None) -> dict:
    """Run the staged loop on synthetic sequences and report metrics.

    `sequences` overrides the generated data; each entry is a list of
    ``(PointCloud, range image)`` pairs as produced by `synth_sequence`.
    Returns a JSON-serializable report with per-stage losses, the sampling
    plan, per-class IoU on the held-out split, and cost totals. With
    `model_path`, the trained student is written there by `save_model`.
    """
    rng = np.random.default_rng(cfg.seed)
    if sequences is None:
        sequences = [synth_sequence(cfg.scene, cfg.frames_per_sequence, cfg.seed + 1000 * s,
                                    sequence_id=s)
                     for s in range(cfg.n_sequences)]

    # Held-out split: the trailing fraction of every sequence.
    train_seqs, heldout = [], []
    for frames in sequences:
        n_held = max(1, math.ceil(cfg.heldout_fraction * len(frames)))
        if n_held >= len(frames):
            raise DomainError("heldout_fraction leaves no training frames")
        train_seqs.append(frames[:-n_held])
        heldout.extend(frames[-n_held:])

    # Redundancy-driven selection of the labeled subset.
    gray = [ranges_to_grayscale([ri for _, ri in frames]) for frames in train_seqs]
    beta, labeled_plan = calibrate_beta(gray, cfg.subset_size, cfg.labeled_fraction)

    frames: list[Frame] = []
    labeled_ids, unlabeled_ids = [], []
    for seq_id, seq_frames in enumerate(train_seqs):
        chosen = set(labeled_plan.entries.get(seq_id, []))
        for idx, (pc, _) in enumerate(seq_frames):
            f = prepare_frame(pc, cfg.grid, cfg.reflec, cfg.kernel_size)
            if idx in chosen:  # `voxelize` gives every voxel a class: none is unreliable
                f.pseudo = PseudoLabelSet(labels=f.svt.labels)
            (unlabeled_ids if f.pseudo is None else labeled_ids).append(len(frames))
            frames.append(f)
    heldout_frames = [prepare_frame(pc, cfg.grid, cfg.reflec, cfg.kernel_size) for pc, _ in heldout]

    n_classes = cfg.scene.n_classes
    student = MiniSegNet(frames[0].svt.channels, n_classes, cfg.widths, cfg.kernel_size,
                         seed=cfg.seed)
    teacher = student.clone()

    def evaluate(net: MiniSegNet) -> np.ndarray:
        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        for f in heldout_frames:
            probs, _ = net.predict(f.svt, rulebook=f.rulebook)
            confusion += confusion_matrix(probs.argmax(axis=1), f.svt.labels, n_classes)
        return confusion

    report: dict = {
        "seed": cfg.seed,
        "labeled_fraction": cfg.labeled_fraction,
        "beta": float(beta),
        "plan": {str(k): v for k, v in labeled_plan.entries.items()},
        "n_labeled_frames": len(labeled_ids),
        "n_unlabeled_frames": len(unlabeled_ids),
        "stages": {},
    }

    def train_stage(stage: str, steps: int, frame_ids: list[int],
                    bank: MemoryBank | None) -> dict:
        loss_cfg = LossConfig(kappa=cfg.kappa, lambda_u=cfg.lambda_u, lambda_c=cfg.lambda_c,
                              stage=stage)
        opt = SGD(student.params, lr=cfg.lr, momentum=cfg.momentum)
        losses: list[float] = []
        order: list[int] = []
        for _ in range(steps):
            if not order:
                order = list(frame_ids)
                rng.shuffle(order)
            losses.append(train_step(student, teacher, frames[order.pop()], opt, loss_cfg,
                                     bank, cfg.contrastive))
        return {"steps": steps, "losses": [round(v, 6) for v in losses],
                "final_loss": losses[-1] if losses else None}

    if 1 in cfg.stages:
        report["stages"]["train"] = train_stage("train", cfg.steps_stage1, labeled_ids, bank=None)

    if 2 in cfg.stages:
        n_reliable = n_unreliable = agree_hits = agree_total = 0
        per_class_reliable = np.zeros(n_classes, dtype=np.int64)
        for fid in unlabeled_ids:
            f = frames[fid]
            f.pseudo, _ = label_frame(teacher, f, cfg.percentile, cfg.per_class_keep)
            labels = f.pseudo.labels
            reliable = labels >= 0
            n_reliable += int(reliable.sum())
            n_unreliable += int(len(labels) - reliable.sum())
            per_class_reliable += np.bincount(labels[reliable], minlength=n_classes)
            if f.svt.labels is not None:
                agree_total += int(reliable.sum())
                agree_hits += int((f.svt.labels[reliable] == labels[reliable]).sum())
        report["stages"]["pseudo_label"] = {
            "frames": len(unlabeled_ids),
            "reliable_voxels": n_reliable,
            "unreliable_voxels": n_unreliable,
            "per_class_reliable": {str(c): int(n) for c, n in enumerate(per_class_reliable)},
            "agreement_with_labels": round(agree_hits / agree_total, 6) if agree_total else None,
        }

    if 3 in cfg.stages:
        # Distillation keeps optimizing the student against the full composite
        # objective; the teacher that produced the pseudo-labels carries over
        # and keeps tracking the student by EMA.
        bank = MemoryBank(n_classes, cfg.contrastive.capacity) if cfg.use_bank else None
        usable = [i for i in range(len(frames)) if frames[i].pseudo is not None]
        report["stages"]["distill"] = train_stage("distill", cfg.steps_stage3, usable, bank)

    confusion = evaluate(student)
    per_class = iou_per_class(confusion)
    typical_sites = frames[0].svt.n_active if frames else 0
    layer_rows, totals = topology_cost(student.topology, typical_sites)
    report["metrics"] = {
        "per_class_iou": [None if np.isnan(v) else round(float(v), 6) for v in per_class],
        "miou": round(mean_iou(confusion), 6),
        "confusion": confusion.tolist(),
    }
    report["cost"] = {
        "active_sites": typical_sites,
        "trainable_params": totals.trainable_params,
        "mult_adds": totals.mult_adds,
        "per_layer": layer_rows,
    }
    if model_path is not None:
        save_model(model_path, student, cfg.grid, cfg.reflec)
    return report


# ---------------------------------------------------------------------------
# Model file: weights, topology and input contract in one `.npz`
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("flat", "in_channels", "n_classes", "widths", "kernel_size",
               "reflec_bins", "reflec_grids", "grid_bins", "grid_rho_max", "grid_z_range")


def save_model(path: str | os.PathLike, net: MiniSegNet, grid: CylGridSpec,
               reflec: ReflecConfig | None) -> None:
    """Write `net`'s weights and topology with the grid and reflectivity
    config its input is built with (``reflec_bins`` 0 means no histograms).
    As with `np.savez`, a path without the ``.npz`` suffix gets one."""
    reflec_grids = (np.array(reflec.bin_grids, dtype=np.int64)
                    if reflec is not None else np.empty((0, 2), dtype=np.int64))
    np.savez(path, flat=net.flat(), in_channels=net.in_channels,
             n_classes=net.n_classes, widths=np.array(net.widths, dtype=np.int64),
             kernel_size=net.kernel_size,
             reflec_bins=reflec.n_bins if reflec is not None else 0,
             reflec_grids=reflec_grids,
             grid_bins=np.array(grid.shape, dtype=np.int64),
             grid_rho_max=float(grid.rho_max),
             grid_z_range=np.array(grid.z_range, dtype=np.float64))


# What a damaged archive raises: `zipfile` gives BadZipFile, EOFError, and for
# a damaged method or flag field OSError, RuntimeError or NotImplementedError;
# a deflated member gives zlib.error; `np.load` gives ValueError.
_ARCHIVE_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, OSError, RuntimeError,
                   NotImplementedError, ValueError)


def load_model(path: str | os.PathLike) -> tuple[MiniSegNet, CylGridSpec, ReflecConfig | None]:
    """Read a file written by `save_model`: the network, its grid and its
    reflectivity config (None without histograms).

    Raises:
        FormatError: the file is not a complete model (not a zip archive,
            truncated, a bad checksum, a missing key or a malformed value).
    """
    with open(path, "rb") as f:
        try:
            # The checksums are read in full first, so a damaged member fails
            # here and not halfway through `np.load`.
            with zipfile.ZipFile(f) as archive:
                damaged = archive.testzip()
            if damaged is None:
                f.seek(0)
                with np.load(f) as npz:
                    saved = dict(npz)
        except _ARCHIVE_ERRORS as exc:
            raise FormatError(f"{path}: not a model file ({exc})") from exc
    if damaged is not None:
        raise FormatError(f"{path}: bad checksum in {damaged}")
    missing = [k for k in _MODEL_KEYS if k not in saved]
    if missing:
        raise FormatError(f"{path}: model file lacks {', '.join(missing)}")
    try:
        n_rho, n_phi, n_z = (int(v) for v in saved["grid_bins"])
        z_min, z_max = (float(v) for v in saved["grid_z_range"])
        grid = CylGridSpec(n_rho=n_rho, n_phi=n_phi, n_z=n_z,
                           rho_max=float(saved["grid_rho_max"]), z_range=(z_min, z_max))
        n_bins = int(saved["reflec_bins"])
        reflec = ReflecConfig(n_bins=n_bins, bin_grids=tuple(
            (int(r), int(p)) for r, p in saved["reflec_grids"])) if n_bins > 0 else None
        shape = (int(saved["in_channels"]), int(saved["n_classes"]),
                 tuple(int(w) for w in saved["widths"]), int(saved["kernel_size"]))
        # Checked before the network allocates its layers.
        _, cost = topology_cost(mini_backbone_topology(*shape), 0)
        if cost.trainable_params != saved["flat"].size:
            raise FormatError(f"{saved['flat'].size} weights do not fit the topology")
        net = MiniSegNet(*shape)
        net.load_flat(saved["flat"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model value ({exc})") from exc
    return net, grid, reflec
