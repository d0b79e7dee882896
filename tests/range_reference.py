"""Standalone per-point range-projection oracle.

`project_reference` is deliberately naive and independent of the library's
z-buffer: it visits the points one at a time and keeps, per pixel, the
nearest float32 range seen so far, with a separate "hit" flag so that a
range that overflows float32 still writes ``inf``. Each point's pixel follows
the formula `lim3d.project_range_image` documents, evaluated on scalars.

The angles use numpy's scalar ufuncs, not the ``math`` module: on CPUs
where numpy dispatches ``arctan2`` to a vectorised routine, ``math.atan2``
rounds differently in the last bit for a few percent of inputs, which would
move points on a pixel or field-of-view edge and make a byte-for-byte
comparison meaningless. The range is ``sqrt((x*x + y*y) + z*z)``, the
summation order of ``np.linalg.norm`` over a row.
"""

import math

import numpy as np


def project_reference(xyz, width, height, vfov):
    """Nearest range per pixel of ``(n, 3)`` points; 0 where no point lands."""
    vmin, vmax = float(vfov[0]), float(vfov[1])
    grid = np.zeros((height, width), dtype=np.float32)
    hit = np.zeros((height, width), dtype=bool)
    for x, y, z in np.asarray(xyz, dtype=np.float32).astype(np.float64).tolist():
        r = math.sqrt((x * x + y * y) + z * z)
        if not r > 0:
            continue
        el = float(np.degrees(np.arctan2(z, np.hypot(x, y))))
        if not vmin <= el <= vmax:
            continue
        az = float(np.arctan2(y, x))
        col = math.floor((az + math.pi) / (2.0 * math.pi) * width) % width
        row = min(max(math.floor((vmax - el) / (vmax - vmin) * height), 0), height - 1)
        r32 = np.float32(r)
        if not hit[row, col] or r32 < grid[row, col]:
            grid[row, col] = r32
            hit[row, col] = True
    return grid
