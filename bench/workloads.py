"""The benchmark's workloads, built only from lim3d's public API.

Each workload turns a seed into inputs in `setup`, runs one timed
operation in `op`, and checks that operation's output in `check`, which
runs outside the timed region. `final_check` holds checks that run once
per process. Sizes come in two flavours: ``full`` is what the benchmark
measures, ``smoke`` is a seconds-long pass over the same code and checks.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import os
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from lim3d import (SGD, CylGridSpec, LossConfig, MemoryBank,
                   MiniSegNet, SceneSpec, Tensor, ToyPipelineConfig, VoxelPredictions,
                   augment, bank_push_negatives, build_anchor_set, build_rulebook,
                   coarse_histograms, crb_select, ema_update, entropy_partition,
                   frame_redundancies, infonce_loss, kl_consistency, lovasz_softmax,
                   normalize_reflectivity, positive_center, read_pgm, reflectivity,
                   run_toy_pipeline, softmax, synth_sequence, total_loss, voxelize)
from lim3d import cli
from lim3d.pointcloud import image_path
from lim3d.sampling import load_plan

ROOT = Path(__file__).resolve().parent.parent

# Held-out mIoU the full toy run must reach; acceptance 09 holds the
# supervised run to the same floor.
TOY_MIOU_FLOOR = 0.9
# Agreement required between the library's SSIM and the nested-loop oracle
# (the acceptance gate's tolerance).
SSIM_ORACLE_TOL = 1e-6

def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# One stage-2 labelling plus one stage-3 training step on a frame
# ---------------------------------------------------------------------------


@dataclass
class Labelled:
    svt: object
    rulebook: object
    radii: np.ndarray
    teacher_probs: np.ndarray
    pseudo: object


@dataclass
class Trained:
    loss: float
    grads: list
    logit_rows: int
    embedding_rows: int
    contrastive: bool


class FrameCycle:
    """Teacher labels a frame, then the student takes one distillation step.

    Hyper-parameters are the toy pipeline's defaults, so the cycle is the
    pipeline's stage 2 and stage 3 applied to one unlabeled frame.
    """

    def __init__(self, grid: CylGridSpec, n_classes: int, seed: int):
        hp = self.hp = ToyPipelineConfig()
        self.grid = grid
        self.n_classes = n_classes
        self.student = MiniSegNet(4 + hp.reflec.feature_dim, n_classes, hp.widths,
                                  hp.kernel_size, seed=seed)
        self.teacher = self.student.clone()
        self.opt = SGD(self.student.params, lr=hp.lr, momentum=hp.momentum)
        self.bank = MemoryBank(n_classes, hp.contrastive.capacity)
        self.loss_cfg = LossConfig(kappa=hp.kappa, lambda_u=hp.lambda_u,
                                   lambda_c=hp.lambda_c, stage="distill")

    def label(self, pc) -> Labelled:
        hp = self.hp
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), hp.reflec)
        svt = voxelize(augment(pc, feats), self.grid)
        rb = build_rulebook(svt.coords, svt.grid, hp.kernel_size)
        probs, emb = self.teacher.predict(svt, rulebook=rb)
        radii = self.grid.voxel_centers(svt.coords)[:, 0]
        vp = VoxelPredictions(probs=probs, embeddings=emb, radii=radii)
        pls = crb_select(entropy_partition(vp, percentile=hp.percentile), vp, hp.per_class_keep)
        return Labelled(svt, rb, radii, probs, pls)

    def train(self, lab: Labelled) -> Trained:
        hp = self.hp
        params = self.student.param_tensors()
        logits, emb = self.student.forward(lab.svt, params=params, rulebook=lab.rulebook)
        probs = softmax(logits, axis=1)
        ids = np.array(sorted(lab.pseudo.reliable), dtype=np.int64)
        target = np.array([lab.pseudo.reliable[int(i)] for i in ids], dtype=np.int64)
        ls = lovasz_softmax(probs.take(ids), target) if len(ids) else Tensor(0.0)
        lu = kl_consistency(probs, lab.teacher_probs)
        vp = VoxelPredictions(probs=probs.data, embeddings=emb.data, radii=lab.radii)
        for c in range(self.n_classes):
            bank_push_negatives(self.bank, vp, lab.pseudo, c)
        anchors, positives = {}, {}
        for c in range(self.n_classes):
            a_ids, _ = build_anchor_set(vp, lab.pseudo, hp.contrastive, c)
            if len(a_ids):
                anchors[c] = emb.take(a_ids)
                positives[c] = positive_center(anchors[c])
        lc = infonce_loss(anchors, positives, self.bank, hp.contrastive)
        loss = total_loss(ls, lu, lc, self.loss_cfg)
        loss.backward()
        grads = [p.grad for p in params]
        self.opt.step(grads)
        self.teacher.load_flat(ema_update(self.teacher.flat(), self.student.flat(), hp.kappa))
        # Returning plain numbers and arrays releases this step's graph.
        return Trained(loss.item(), grads, logits.shape[0], emb.shape[0], lc is not None)


def check_cycle(lab: Labelled, out: Trained) -> list[str]:
    failures = []
    n = lab.svt.n_active
    if out.logit_rows != n or out.embedding_rows != n or len(lab.teacher_probs) != n:
        failures.append(f"output rows {out.logit_rows}/{out.embedding_rows}/"
                        f"{len(lab.teacher_probs)} != {n} active sites")
    if not math.isfinite(out.loss):
        failures.append(f"loss is {out.loss}")
    if any(g is None or not np.isfinite(g).all() for g in out.grads):
        failures.append("a parameter gradient is missing or not finite")
    pls = lab.pseudo
    if len(pls.reliable) + len(pls.unreliable) != n or not pls.covers(n):
        failures.append("pseudo-label partition does not cover every voxel exactly once")
    return failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class ToyPipeline:
    name = "toy_pipeline"
    why = ("Tiny frames, so per-node Python and graph overhead bound the time; shows gains "
           "from fusing nodes and graph-free inference. ssim and voxel do almost no work.")
    setup_repeats = 9
    min_ops = 1
    trace_ops = 1

    def __init__(self, smoke: bool):
        extra = dict(steps_stage1=8, steps_stage3=6, frames_per_sequence=12) if smoke else {}
        self.cfg_args = dict(labeled_fraction=0.4, stages=(1, 2, 3), **extra)
        # A few smoke steps cannot reach the floor; smoke checks mIoU is a valid score.
        self.miou_floor = 0.0 if smoke else TOY_MIOU_FLOOR

    def setup(self, seed: int, workdir: Path):
        cfg = ToyPipelineConfig(seed=seed, **self.cfg_args)
        sequences = [synth_sequence(cfg.scene, cfg.frames_per_sequence, seed + 1000 * s,
                                    sequence_id=s)
                     for s in range(cfg.n_sequences)]
        cycle = FrameCycle(cfg.grid, cfg.scene.n_classes, seed)
        cycle.train(cycle.label(sequences[0][0][0]))  # warm-up frame, not timed
        return {"cfg": cfg, "sequences": sequences, "reports": []}

    def op(self, state, i):
        # A timestamp after every optimizer step splits the pipeline's wall
        # time into training steps, whose median shrugs off bursts of noise
        # that a single 15 s total cannot. It costs one clock read per step.
        marks = []
        step = SGD.step

        def timed_step(opt, grads):
            step(opt, grads)
            marks.append(perf_counter())

        SGD.step = timed_step
        try:
            report = run_toy_pipeline(state["cfg"], sequences=state["sequences"])
        finally:
            SGD.step = step
        return {"step_s": np.diff(marks).tolist()}, report

    def check(self, state, report) -> list[str]:
        failures = []
        losses = [v for stage in report["stages"].values() for v in stage.get("losses", [])]
        if not all(math.isfinite(v) for v in losses):
            failures.append("a stage loss is not finite")
        miou = report["metrics"]["miou"]
        if not (self.miou_floor <= miou <= 1.0):
            failures.append(f"miou {miou} below the floor {self.miou_floor}")
        state["reports"].append(report)
        if report["metrics"] != state["reports"][0]["metrics"]:
            failures.append("the same inputs gave a different report")
        return failures

    def release(self, state) -> None:
        pass

    def named(self, state, op_s, phases) -> dict:
        cfg = state["cfg"]
        steps = cfg.steps_stage1 + cfg.steps_stage3
        miou = state["reports"][-1]["metrics"]["miou"] if state["reports"] else float("nan")
        return {"steps_per_s": (steps / _median(op_s), "1/s", len(op_s)),
                "miou": (miou, "1", len(op_s))}


class LargeFrame:
    name = "large_frame"
    why = ("100k-point frames with ~11.5k sites: array traffic and memory dominate; the same "
           "conv/autodiff layers run forward-only (labelling) and forward plus backward.")
    setup_repeats = 3
    min_ops = 3
    trace_ops = 2

    def __init__(self, smoke: bool):
        if smoke:
            self.scene = SceneSpec(n_points=5_000)
            self.grid = CylGridSpec(40, 30, 12, rho_max=20.0, z_range=(-1.0, 5.0))
            self.n_frames = 2
        else:
            self.scene = SceneSpec(n_points=100_000)
            self.grid = CylGridSpec(160, 120, 24, rho_max=20.0, z_range=(-1.0, 5.0))
            self.n_frames = 8

    def setup(self, seed: int, workdir: Path):
        frames = [pc for pc, _ in synth_sequence(self.scene, self.n_frames + 1, seed)]
        cycle = FrameCycle(self.grid, self.scene.n_classes, seed)
        cycle.train(cycle.label(frames.pop()))  # warm-up frame, not timed
        return {"frames": frames, "cycle": cycle}

    def op(self, state, i):
        cycle = state["cycle"]
        t0 = perf_counter()
        lab = cycle.label(state["frames"][i % len(state["frames"])])
        t1 = perf_counter()
        out = cycle.train(lab)
        t2 = perf_counter()
        return {"label_s": t1 - t0, "train_s": t2 - t1}, (lab, out)

    def check(self, state, output) -> list[str]:
        return check_cycle(*output)

    def release(self, state) -> None:
        pass

    def named(self, state, op_s, phases) -> dict:
        train, label = phases.get("train_s", []), phases.get("label_s", [])
        return {"train_step_s": (_median(train), "s", len(train)),
                "label_frame_s": (_median(label), "s", len(label))}


class SampleSequences:
    name = "sample_sequences"
    why = ("SSIM, calibration, PGM reads and the thread pool do all the work and "
           "sparseconv/autodiff none, so a convolution or autodiff change predicts no change.")
    setup_repeats = 3
    min_ops = 2
    trace_ops = 2

    def __init__(self, smoke: bool):
        if smoke:
            self.sequences, self.frames, self.points, self.width, self.height = 2, 12, 2_000, 128, 32
            self.subset = "4"
        else:
            self.sequences, self.frames, self.points, self.width, self.height = 4, 48, 20_000, 512, 64
            self.subset = "8"
        self.target_fraction = 0.25

    def setup(self, seed: int, workdir: Path):
        seq_dir = workdir / "sequences"
        shutil.rmtree(seq_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["synth", "--out-dir", str(seq_dir), "--sequences", str(self.sequences),
                           "--frames", str(self.frames), "--n-points", str(self.points),
                           "--width", str(self.width), "--height", str(self.height),
                           "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"lim3d synth exited {rc}")
        # Warm-up: one adjacent pair through the sampler's scoring, not timed.
        pair = [read_pgm(image_path(seq_dir, "00", t)).astype(np.float64) for t in (0, 1)]
        frame_redundancies(pair, n_threads=int(os.environ.get("LIM3D_THREADS", "1")))
        return {"dir": seq_dir, "plan": workdir / "plan.json", "seed": seed}

    def op(self, state, i):
        rc = cli.main(["sample", "--seq-dir", str(state["dir"]),
                       "--target-fraction", str(self.target_fraction),
                       "--subset-size", self.subset, "--out", str(state["plan"])])
        return {}, rc

    def check(self, state, rc) -> list[str]:
        if rc != 0:
            return [f"lim3d sample exited {rc}"]
        failures = []
        plan = load_plan(state["plan"])
        names = [f"{s:02d}" for s in range(self.sequences)]
        if sorted(plan) != names:
            failures.append(f"plan sequences {sorted(plan)} != {names}")
        for name, idx in plan.items():
            if idx != sorted(set(idx)) or any(not 0 <= i < self.frames for i in idx):
                failures.append(f"sequence {name}: indices not sorted, unique and in range")
        total = self.sequences * self.frames
        selected = sum(len(v) for v in plan.values())
        # Subsets with equal redundancy change their counts together, so the
        # calibrated count moves in steps; "near" is within a tenth of the frames.
        if abs(selected - self.target_fraction * total) > 0.1 * total:
            failures.append(f"selected {selected} of {total}, target fraction "
                            f"{self.target_fraction}")
        state["selected_frac"] = selected / total
        return failures

    def final_check(self, state) -> list[str]:
        """A static and a moving adjacent pair scored by the nested-loop oracle."""
        spec = importlib.util.spec_from_file_location(
            "ssim_reference", ROOT / "tests" / "ssim_reference.py")
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        rng = np.random.default_rng(state["seed"])
        # `lim3d synth` holds segments of 8 frames still, then moves them.
        starts = (int(rng.integers(0, 7)), int(rng.integers(8, min(15, self.frames - 1))))
        failures = []
        for j in starts:
            a, b = (read_pgm(image_path(state["dir"], "00", t)).astype(np.float64)
                    for t in (j, j + 1))
            got = float(frame_redundancies([a, b])[0])
            want = float(np.clip(oracle.ssim_reference(a, b), 0.0, 1.0))
            if abs(got - want) > SSIM_ORACLE_TOL:
                failures.append(f"frames {j},{j + 1}: redundancy {got} vs oracle {want}")
        return failures

    def release(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)
        state["plan"].unlink(missing_ok=True)

    def named(self, state, op_s, phases) -> dict:
        return {"frames_per_s": (self.sequences * self.frames / _median(op_s), "1/s", len(op_s)),
                "selected_frac": (state.get("selected_frac", float("nan")), "1", len(op_s))}


WORKLOADS = {w.name: w for w in (ToyPipeline, LargeFrame, SampleSequences)}
