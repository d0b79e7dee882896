"""Mean-teacher training: EMA weights, metrics, and the three-stage toy run.

The semi-supervised half is two steps. In `label_frame` the teacher
predicts a frame, splits its voxels by entropy and filters the reliable ones
class-and-range-balanced. In `train_step` the student takes one update on
the composite loss (supervised Jaccard extension, KL consistency to the
teacher, and in the distill stage the contrastive term fed by a FIFO bank
of unreliable-voxel negatives), then the teacher tracks it by EMA.

`run_toy_pipeline` composes four stages over one `ToyRun`. `prepare_run`
puts the ground truth of the frames the redundancy-driven sampling plan
picks in `Frame.pseudo`, each frame's one place for training labels;
`train_stage` trains on every frame with labels (stage 1 on those, stage 3
also on the pseudo-labelled rest), `label_stage` labels frames with any
network (stage 2 uses the teacher), `evaluate` scores one. A variant is a composition.

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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .autodiff import Tensor, softmax
from .errors import DivergenceError, DomainError, FormatError, ShapeError, ValidationError, is_count
from .losses import LossConfig, kl_consistency, lovasz_softmax, total_loss
from .network import DEFAULT_WIDTHS, MiniSegNet, mini_backbone_topology, topology_cost
from .pseudolabel import (ContrastiveConfig, MemoryBank, PseudoLabelSet,
                          VoxelPredictions, bank_push_negatives,
                          build_anchor_set, entropy_partition, crb_select,
                          infonce_loss, positive_center)
from .reflectivity import ReflecConfig, augment, coarse_histograms, normalize_reflectivity, reflectivity
from .sampling import SamplingPlan, calibrate_beta
from .scene import SceneSpec, ranges_to_grayscale, synth_sequence
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
    "ToyRun", "prepare_run", "train_stage", "label_stage", "evaluate",
    "run_toy_pipeline",
    "save_model",
    "load_model",
]

# The cylindrical grid of the toy scenes, `ToyPipelineConfig.grid`.
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
    """Plain momentum SGD over a list of parameter arrays. A negative or
    non-finite `lr`, or a `momentum` outside [0, 1], raises `DomainError`."""

    def __init__(self, params: list[np.ndarray], lr: float, momentum: float = 0.9):
        if not (0.0 <= lr < np.inf and 0.0 <= momentum <= 1.0):
            raise DomainError(f"lr must be nonnegative and finite and momentum lie in [0, 1], "
                              f"got {lr!r} and {momentum!r}")
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
    """The toy run's recipe. Its fields are the settings callers vary; the
    class constants below them are the rest of the recipe, read the same
    way (``cfg.lr``). A constant becomes a field again in the change that
    adds a caller who sets it."""

    frames_per_sequence: int = 24
    labeled_fraction: float = 1.0
    steps_stage1: int = 280
    steps_stage3: int = 160
    lambda_c: float = LossConfig.lambda_c
    stages: tuple[int, ...] = (1, 2, 3)
    seed: int = 0

    scene: ClassVar[SceneSpec] = SceneSpec()
    n_sequences: ClassVar[int] = 1
    heldout_fraction: ClassVar[float] = 0.25
    subset_size: ClassVar[int] = 8
    grid: ClassVar[CylGridSpec] = TOY_GRID
    reflec: ClassVar[ReflecConfig] = ReflecConfig(bin_grids=((4, 8), (8, 16), (16, 24)))
    widths: ClassVar[tuple[int, ...]] = DEFAULT_WIDTHS
    kernel_size: ClassVar[int] = 3
    lr: ClassVar[float] = 0.05
    momentum: ClassVar[float] = 0.9
    kappa: ClassVar[float] = LossConfig.kappa
    lambda_u: ClassVar[float] = LossConfig.lambda_u
    percentile: ClassVar[float] = 80.0
    per_class_keep: ClassVar[float] = 0.9
    contrastive: ClassVar[ContrastiveConfig] = ContrastiveConfig(max_anchors=64)

    def __post_init__(self):
        if not is_count(self.frames_per_sequence):
            raise DomainError(f"frames_per_sequence must be an integer >= 1, "
                              f"got {self.frames_per_sequence!r}")
        if not (is_count(self.steps_stage1, 0) and is_count(self.steps_stage3, 0)):
            raise DomainError(f"steps_stage1 and steps_stage3 must be integers >= 0, got "
                              f"{self.steps_stage1!r} and {self.steps_stage3!r}")
        self.loss_config()
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise DomainError("labeled_fraction must lie in (0, 1]")
        if any(s not in (1, 2, 3) for s in self.stages):
            raise DomainError("stages must be a subset of (1, 2, 3)")

    def loss_config(self, stage: str = "train") -> LossConfig:
        """The loss weights for one training stage, checked by `LossConfig`
        as it is built; `__post_init__` builds one so they fail here."""
        return LossConfig(self.kappa, self.lambda_u, self.lambda_c, stage)


@dataclass
class Frame:
    """A cloud as the network sees it: its voxels and their rulebook.

    `pseudo` holds the frame's training labels, None until it has some:
    `prepare_run` sets the ground truth (every voxel reliable) of the
    frames its sampling plan picks, and `label_stage` pseudo-labels.
    """

    svt: SparseVoxelTensor
    rulebook: Rulebook
    pseudo: PseudoLabelSet | None = None


def prepare_frame(pc, grid: CylGridSpec, reflec: ReflecConfig | None,
                  kernel_size: int = 3) -> Frame:
    """The network input for `pc`: reflectivity histograms appended to the
    point features (when `reflec` is given), voxelized on `grid`."""
    if reflec is not None:
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), reflec)
        pc = augment(pc, feats)
    svt = voxelize(pc, grid)
    return Frame(svt=svt, rulebook=build_rulebook(svt.coords, svt.grid, kernel_size))


def label_frame(teacher: MiniSegNet, frame: Frame, percentile: float,
                per_class_keep: float) -> tuple[PseudoLabelSet, np.ndarray]:
    """The teacher's pseudo-labels for `frame`, and its class probabilities.

    `entropy_partition` splits the voxels at the `percentile` of the frame's
    entropy, and `crb_select` keeps the `per_class_keep` most confident
    reliable voxels per class and range band, the bands cut from the voxel
    centers' radii on the frame's grid.
    """
    probs, emb = teacher.predict(frame.svt, rulebook=frame.rulebook)
    radii = frame.svt.grid.voxel_centers(frame.svt.coords)[:, 0]
    vp = VoxelPredictions(probs=probs, embeddings=emb, radii=radii)
    return crb_select(entropy_partition(vp, percentile), vp, per_class_keep), probs


def train_step(student: MiniSegNet, teacher: MiniSegNet, frame: Frame, opt: SGD,
               loss_cfg: LossConfig, bank: MemoryBank | None,
               contrastive: ContrastiveConfig) -> float:
    """One student update on `frame`, then the teacher's EMA update at
    ``loss_cfg.kappa``; returns the loss. The supervised term covers the
    reliable voxels of `frame.pseudo`, which holds ground truth or
    pseudo-labels alike. When `loss_cfg` gives the contrastive term a weight,
    the frame's unreliable voxels are pushed into `bank` and the contrastive
    term joins, unless `frame.pseudo` is None.

    Raises:
        DomainError: the contrastive term has a weight but there is no `bank`.
        DivergenceError: the loss is not finite; no weight has changed.
    """
    if loss_cfg.contrastive_weight and bank is None:
        raise DomainError(f"{loss_cfg.stage}: a contrastive weight needs a memory bank")
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
    if loss_cfg.contrastive_weight and pls is not None:
        vp = VoxelPredictions(probs=probs.data, embeddings=emb.data)
        anchors = {}
        for c in range(student.n_classes):
            bank_push_negatives(bank, vp, pls, c)
            a_ids, _ = build_anchor_set(vp, pls, contrastive, c)
            if len(a_ids):
                anchors[c] = emb.take(a_ids)
        positives = {c: positive_center(a) for c, a in anchors.items()}
        lc = infonce_loss(anchors, positives, bank, contrastive)

    loss = total_loss(ls, lu, lc, loss_cfg)
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"{loss_cfg.stage}: loss became non-finite")
    loss.backward()
    opt.step([p.grad for p in params])
    teacher.load_flat(ema_update(teacher.flat(), student.flat(), loss_cfg.kappa))
    return value


@dataclass
class ToyRun:
    """What the toy run's stages share: `rng` orders their steps, `bank` keeps negatives."""

    cfg: ToyPipelineConfig
    frames: list[Frame]
    heldout: list[Frame]
    student: MiniSegNet
    teacher: MiniSegNet
    rng: np.random.Generator
    beta: float
    plan: SamplingPlan
    bank: MemoryBank


def prepare_run(cfg: ToyPipelineConfig, sequences: list[list] | None = None) -> ToyRun:
    """A run on `sequences` of ``(PointCloud, range image)`` pairs, or on the
    config's synthetic ones: each one's trailing `heldout_fraction` is held
    out, and the sampling plan picks the frames whose ground truth is kept.
    A cloud without labels raises `ValidationError`."""
    rng = np.random.default_rng(cfg.seed)
    if sequences is None:
        sequences = [synth_sequence(cfg.scene, cfg.frames_per_sequence, cfg.seed, sequence_id=s)
                     for s in range(cfg.n_sequences)]
    train_seqs, heldout = [], []
    for seq_id, seq in enumerate(sequences):
        if missing := [i for i, (pc, _) in enumerate(seq) if pc.labels is None]:
            raise ValidationError(f"sequence {seq_id}: frames at positions {missing} have no labels")
        n_held = max(1, math.ceil(cfg.heldout_fraction * len(seq)))
        if n_held >= len(seq):
            raise DomainError("heldout_fraction leaves no training frames")
        train_seqs.append(seq[:-n_held])
        heldout.extend(seq[-n_held:])

    gray = [ranges_to_grayscale([ri for _, ri in seq]) for seq in train_seqs]
    beta, plan = calibrate_beta(gray, cfg.subset_size, cfg.labeled_fraction)
    frames: list[Frame] = []
    for seq_id, seq_frames in enumerate(train_seqs):
        chosen = set(plan.entries.get(seq_id, []))
        for idx, (pc, _) in enumerate(seq_frames):
            frames.append(prepare_frame(pc, cfg.grid, cfg.reflec, cfg.kernel_size))
            if idx in chosen:  # `voxelize` gives every voxel a class: none is unreliable
                frames[-1].pseudo = PseudoLabelSet(labels=frames[-1].svt.labels)
    heldout_frames = [prepare_frame(pc, cfg.grid, cfg.reflec, cfg.kernel_size) for pc, _ in heldout]
    student = MiniSegNet(frames[0].svt.channels, cfg.scene.n_classes, cfg.widths,
                         cfg.kernel_size, seed=cfg.seed)
    return ToyRun(cfg, frames, heldout_frames, student, student.clone(), rng, float(beta), plan,
                  MemoryBank(cfg.scene.n_classes, cfg.contrastive.capacity))


def train_stage(run: ToyRun, stage: str) -> dict:
    """`train_step` at `stage`'s loss weights with `run.bank`, `cfg.steps_stage1`
    times in ``"train"`` and `cfg.steps_stage3` in ``"distill"``, on every frame
    whose `pseudo` is set in a fresh shuffle each pass; returns the report's
    stage entry. Steps with no such frame raise `DomainError`."""
    cfg = run.cfg
    loss_cfg = cfg.loss_config(stage)
    steps = cfg.steps_stage1 if stage == "train" else cfg.steps_stage3
    frame_ids = [i for i, f in enumerate(run.frames) if f.pseudo is not None]
    if steps > 0 and not frame_ids:
        raise DomainError(f"{stage}: {steps} steps need at least one frame with labels")
    opt = SGD(run.student.params, lr=cfg.lr, momentum=cfg.momentum)
    losses, order = [], []
    for _ in range(steps):
        if not order:
            order = list(frame_ids)
            run.rng.shuffle(order)
        losses.append(train_step(run.student, run.teacher, run.frames[order.pop()], opt,
                                 loss_cfg, run.bank, cfg.contrastive))
    return {"steps": steps, "losses": [round(v, 6) for v in losses],
            "final_loss": losses[-1] if losses else None}


def label_stage(run: ToyRun, labeller: MiniSegNet, frame_ids: list[int]) -> dict:
    """Set each indexed frame's `pseudo` to `labeller`'s `label_frame`
    labels; returns the report's stage entry, which counts them."""
    cfg, n_classes = run.cfg, labeller.n_classes
    per_class = np.zeros(n_classes, dtype=np.int64)
    n_voxels = hits = checked = 0
    for fid in frame_ids:
        f = run.frames[fid]
        f.pseudo, _ = label_frame(labeller, f, cfg.percentile, cfg.per_class_keep)
        reliable = f.pseudo.labels >= 0
        per_class += np.bincount(f.pseudo.labels[reliable], minlength=n_classes)
        n_voxels += len(reliable)
        if f.svt.labels is not None:
            checked += int(reliable.sum())
            hits += int((f.svt.labels == f.pseudo.labels)[reliable].sum())
    n_reliable = int(per_class.sum())
    return {"frames": len(frame_ids), "reliable_voxels": n_reliable,
            "unreliable_voxels": n_voxels - n_reliable,
            "per_class_reliable": {str(c): int(n) for c, n in enumerate(per_class)},
            "agreement_with_labels": round(hits / checked, 6) if checked else None}


def evaluate(net: MiniSegNet, frames: list[Frame]) -> np.ndarray:
    """The confusion matrix of `net`'s predictions on labeled `frames`."""
    confusion = np.zeros((net.n_classes, net.n_classes), dtype=np.int64)
    for i, f in enumerate(frames):
        if f.svt.labels is None:
            raise ValidationError(f"evaluate: frame {i} has no voxel labels")
        probs, _ = net.predict(f.svt, rulebook=f.rulebook)
        confusion += confusion_matrix(probs.argmax(axis=1), f.svt.labels, net.n_classes)
    return confusion


def run_toy_pipeline(cfg: ToyPipelineConfig,
                     sequences: list[list] | None = None,
                     model_path: str | None = None) -> dict:
    """Run the configured stages on `prepare_run`'s frames and report metrics.

    Returns a JSON-serializable report with per-stage losses, the sampling
    plan, per-class IoU on the held-out split, and the cost per training
    frame: multiply-adds counted from the frames' rulebooks, next to the
    bound of fully active neighbourhoods (`mult_adds_bound`). With
    `model_path`, the trained student is written there by `save_model`.
    """
    run = prepare_run(cfg, sequences)
    frames, student = run.frames, run.student
    labeled = [i for i, f in enumerate(frames) if f.pseudo is not None]
    unlabeled = [i for i, f in enumerate(frames) if f.pseudo is None]
    stages: dict = {}
    if 1 in cfg.stages:
        stages["train"] = train_stage(run, "train")
    if 2 in cfg.stages:
        stages["pseudo_label"] = label_stage(run, run.teacher, unlabeled)
    if 3 in cfg.stages:
        # The stage-1 student, on every frame with labels; the teacher carries over.
        stages["distill"] = train_stage(run, "distill")

    confusion = evaluate(student, run.heldout)
    per_class = iou_per_class(confusion)
    # Cost is linear in sites and pairs: the cost of the frames' sums, / n_frames, is the mean.
    sites, n_frames = sum(f.svt.n_active for f in frames), len(frames)
    layer_rows, totals = topology_cost(student.topology, sites,
                                       sum(f.rulebook.n_pairs for f in frames))
    report = {
        "seed": cfg.seed, "labeled_fraction": cfg.labeled_fraction, "beta": run.beta,
        "plan": {str(k): v for k, v in run.plan.entries.items()},
        "n_labeled_frames": len(labeled), "n_unlabeled_frames": len(unlabeled),
        "stages": stages,
        "metrics": {
            "per_class_iou": [None if np.isnan(v) else round(float(v), 6) for v in per_class],
            "miou": round(mean_iou(confusion), 6),
            "confusion": confusion.tolist(),
        },
        "cost": {
            "frames": n_frames,
            "active_sites": round(sites / n_frames, 1),
            "trainable_params": totals.trainable_params,
            "mult_adds": round(totals.mult_adds / n_frames),
            "mult_adds_bound": round(topology_cost(student.topology, sites)[1].mult_adds / n_frames),
            "per_layer": [{**r, "mult_adds": round(r["mult_adds"] / n_frames)} for r in layer_rows],
        },
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
            truncated, a bad checksum, a missing key, a malformed value or a
            non-finite weight), or its `in_channels` is not the 4 point
            features plus the histogram width of its reflectivity config.
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
        # `voxelize` emits (dx, dy, dz, intensity), then the histograms.
        n_features = 4 + (reflec.feature_dim if reflec is not None else 0)
        if shape[0] != n_features:
            raise FormatError(f"in_channels {shape[0]} does not match the {n_features} "
                              f"input features of the grid and reflectivity config")
        # Checked before the network allocates its layers.
        _, cost = topology_cost(mini_backbone_topology(*shape), 0)
        if cost.trainable_params != saved["flat"].size:
            raise FormatError(f"{saved['flat'].size} weights do not fit the topology")
        if not np.isfinite(saved["flat"]).all():
            raise FormatError("flat holds a non-finite weight")
        net = MiniSegNet(*shape)
        net.load_flat(saved["flat"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model value ({exc})") from exc
    return net, grid, reflec
