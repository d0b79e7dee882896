#!/usr/bin/env python3
"""Redundancy-aware frame selection on a two-regime synthetic sequence.

The first half of the sequence is static (adjacent frames identical), the
second half moves. The sampler keeps almost nothing from the static half
and most of the moving half, while passive baselines ignore the structure.
"""

import numpy as np

from lim3d import (SceneSpec, calibrate_beta, passive_baselines, plan,
                   ranges_to_grayscale, synth_sequence)
from lim3d.sampling import frame_redundancies

spec = SceneSpec(n_points=300, segment_length=8, segment_speeds=(0.0, 1.0))
frames = synth_sequence(spec, 16, seed=4)
gray = ranges_to_grayscale([ri for _, ri in frames])

psi = frame_redundancies(gray)
print("per-frame redundancy (structural similarity to the next frame):")
print("  static half:", np.round(psi[:8], 3))
print("  moving half:", np.round(psi[8:], 3))

for beta in (0.0, 2.28, 4.0, 7.45):
    chosen = plan([gray], subset_size=8, beta=beta).entries[0]
    marks = "".join("x" if i in chosen else "." for i in range(16))
    print(f"beta={beta:5.2f}: {marks}  ({len(chosen)} frames)")

uniform = passive_baselines(16, 0.5, "uniform").entries[0]
print("uniform 50%:", "".join("x" if i in uniform else "." for i in range(16)),
      " (ignores redundancy)")

beta, calibrated = calibrate_beta([gray], subset_size=8, target_fraction=0.5)
print(f"calibrated beta for a 50% budget: {beta:.3f} "
      f"-> {calibrated.total()} of 16 frames: {sorted(calibrated.entries[0])}")
