#!/usr/bin/env python3
"""The staged semi-supervised loop on synthetic scenes, end to end.

Stage 1 trains a student on a redundancy-sampled 40% of the frames while
an EMA teacher tracks it. Stage 2 splits the teacher's predictions on the
unlabeled frames by entropy and keeps a class-and-range-balanced reliable
subset as pseudo-labels. Stage 3 keeps training on ground truth plus
pseudo-labels with the composite loss, mining unreliable voxels as
contrastive negatives through a FIFO memory bank.

Takes about half a minute.
"""

import time

from lim3d import ToyPipelineConfig, run_toy_pipeline

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
