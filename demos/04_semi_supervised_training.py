#!/usr/bin/env python3
"""The staged semi-supervised loop on synthetic scenes, end to end.

Stage 1 trains a student on a redundancy-sampled 40% of the frames while
an EMA teacher tracks it. Stage 2 splits the teacher's predictions on the
unlabeled frames by entropy and keeps a class-and-range-balanced reliable
subset as pseudo-labels. Stage 3 keeps training on ground truth plus
pseudo-labels with the composite loss, mining unreliable voxels as
contrastive negatives through a FIFO memory bank.

The stages are public functions over one `ToyRun`, so a variant of the
recipe is another composition of them. The demo ends with one: after a
short stage 1, label with the student instead of its EMA teacher.
`train_stage(run, stage)` reads its frames (every one with labels), its
step count and its memory bank from the run.

Takes a few seconds.
"""

import time

from lim3d import ToyPipelineConfig, label_stage, prepare_run, run_toy_pipeline, train_stage

cfg = ToyPipelineConfig(labeled_fraction=0.4, stages=(1, 2, 3), seed=7)

start = time.perf_counter()
report = run_toy_pipeline(cfg)
elapsed = time.perf_counter() - start

print(f"labeled fraction requested: {cfg.labeled_fraction:.0%}")
print(f"calibrated decay coefficient: beta = {report['beta']:.3f}")
print(f"labeled / unlabeled training frames: "
      f"{report['n_labeled_frames']} / {report['n_unlabeled_frames']}")

train = report["stages"]["train"]
print(f"\nstage 1 (train):        {train['steps']} steps, "
      f"loss {train['losses'][0]:.3f} -> {train['final_loss']:.3f}")
pseudo = report["stages"]["pseudo_label"]
print(f"stage 2 (pseudo-label): {pseudo['reliable_voxels']} reliable / "
      f"{pseudo['unreliable_voxels']} unreliable voxels, "
      f"agreement with hidden labels {pseudo['agreement_with_labels']:.1%}")
distill = report["stages"]["distill"]
print(f"stage 3 (distill):      {distill['steps']} steps, "
      f"final loss {distill['final_loss']:.3f}")

print(f"\nheld-out per-class IoU: {report['metrics']['per_class_iou']}")
print(f"held-out mean IoU:      {report['metrics']['miou']:.3f}")
print(f"model:                  {report['cost']['trainable_params']} trainable params, "
      f"{report['cost']['mult_adds']:,} mult-adds per training frame, counted from "
      f"its rulebook ({report['cost']['mult_adds_bound']:,} if every neighbour were active)")
print(f"wall time:              {elapsed:.0f}s")

# A variant by composition: a short stage 1, then each network labels the
# unlabeled frames in turn.
run = prepare_run(ToyPipelineConfig(labeled_fraction=0.4, steps_stage1=40, seed=7))
unlabeled = [i for i, f in enumerate(run.frames) if f.pseudo is None]
train_stage(run, "train")
print(f"\nafter a {run.cfg.steps_stage1}-step stage 1, pseudo-labels' agreement with hidden labels:")
for name, labeller in (("EMA teacher", run.teacher), ("student", run.student)):
    entry = label_stage(run, labeller, unlabeled)
    print(f"  labelled by the {name:<11} {entry['agreement_with_labels']:.1%} "
          f"of {entry['reliable_voxels']} reliable voxels")
