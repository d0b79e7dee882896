"""Per-voxel dict-and-set oracles for the entropy partition and CRB filter.

These are the library's earlier implementations, kept as references: the
reliable group is a ``{voxel: class}`` dict and the unreliable group a set,
built one voxel at a time. `lim3d.pseudolabel` stores the same partition as
one label array with -1 marking unreliable voxels, so on any input the two
must agree exactly.
"""

import math

import numpy as np

from lim3d.pseudolabel import shannon_entropy


def entropy_partition_reference(probs, percentile):
    """``(reliable, unreliable)``: argmax for voxels at or below the entropy
    percentile, the rest in a set."""
    h = shannon_entropy(probs)
    if len(h) == 0:
        return {}, set()
    threshold = np.percentile(h, percentile)
    argmax = probs.argmax(axis=1)
    reliable = {int(i): int(argmax[i]) for i in np.flatnonzero(h <= threshold)}
    return reliable, {int(i) for i in np.flatnonzero(h > threshold)}


def crb_select_reference(reliable, unreliable, probs, radii, per_class_keep):
    """Keep the top ``ceil(keep * n)`` reliable voxels of each (class, radial
    third) group by class probability, lower id first on ties; demote the rest."""
    if per_class_keep == 1.0 or not reliable:
        return dict(reliable), set(unreliable)
    ids = np.array(sorted(reliable), dtype=np.int64)
    classes = np.array([reliable[int(i)] for i in ids], dtype=np.int64)
    band = np.zeros(ids.size, dtype=np.int64)
    if radii is not None:
        r = radii[ids]
        lo, hi = float(r.min()), float(r.max())
        if hi > lo:
            band = np.minimum(np.floor((r - lo) / (hi - lo) * 3).astype(np.int64), 2)
    keep = set()
    for cls in np.unique(classes):
        for b in np.unique(band):
            group = ids[(classes == cls) & (band == b)]
            if group.size == 0:
                continue
            order = np.lexsort((group, -probs[group, cls]))
            keep.update(int(g) for g in group[order[:math.ceil(per_class_keep * group.size)]])
    kept = {i: c for i, c in reliable.items() if i in keep}
    return kept, set(unreliable) | (set(reliable) - keep)
