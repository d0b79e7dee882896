import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from lim3d import (ConvSpec, CylGridSpec, SparseVoxelTensor, apply_pointwise, apply_spatial,
                   build_rulebook, glorot_weights)


def random_grid(rng, max_dim=8):
    dims = rng.integers(2, max_dim + 1, size=3)
    return CylGridSpec(int(dims[0]), int(dims[1]), int(dims[2]),
                       rho_max=float(dims[0]), z_range=(0.0, float(dims[2])))


def random_sparse_tensor(rng, grid=None, channels=None, max_active=48, max_dim=8):
    """Random active sites with unit-scale gaussian features."""
    if grid is None:
        grid = random_grid(rng, max_dim=max_dim)
    if channels is None:
        channels = int(rng.integers(1, 9))
    n_cells = grid.n_cells
    n_active = int(rng.integers(1, min(n_cells, max_active) + 1))
    keys = np.sort(rng.choice(n_cells, size=n_active, replace=False))
    coords = np.column_stack([
        keys // (grid.n_phi * grid.n_z),
        (keys // grid.n_z) % grid.n_phi,
        keys % grid.n_z,
    ])
    features = rng.normal(size=(n_active, channels))
    return SparseVoxelTensor(grid=grid, coords=coords, features=features)


def draw_conv(rng, kind, in_channels, out_channels, kernel_size, bias=False):
    """A `ConvSpec`, its Glorot weights and its bias (zeros, or None without one)."""
    spec = ConvSpec(kind, in_channels, out_channels, kernel_size, bias)
    return spec, glorot_weights(spec, rng), np.zeros(out_channels) if bias else None


def identity_weights(kind, channels, kernel_size=3):
    """A `ConvSpec` whose output equals its input, and its weights: the
    center tap is the identity map."""
    d = 1 if kind == "pointwise" else kernel_size
    spec = ConvSpec(kind, channels, channels, d, False)
    w = np.zeros(spec.weight_shape)
    center = w[((d - 1) // 2,) * 3] if w.ndim > 2 else w
    center[...] = np.eye(channels) if center.ndim == 2 else 1.0
    return spec, w


def rulebook_of(t, kernel_size=3):
    """`t`'s own neighbour table, as `prepare_frame` builds it per frame."""
    return build_rulebook(t.coords, t.grid, kernel_size)


def conv_tensor(t, spec, weights, bias=None):
    """`t` with its features through one convolution node, a spatial one on
    `t`'s own rulebook."""
    if spec.kind == "pointwise":
        out = apply_pointwise(t.features, spec, weights, bias)
    else:
        out = apply_spatial(t.features, rulebook_of(t, spec.kernel_size), spec, weights, bias)
    return replace(t, features=out.data)


def recipe(cls, **settings):
    """A `cls` recipe with `settings`: a field goes to the constructor, and a
    class constant is overridden in a test-local subclass."""
    names = {f.name for f in fields(cls)}
    constants = {k: v for k, v in settings.items() if k not in names}
    assert all(hasattr(cls, k) for k in constants), f"{cls.__name__} has no {constants}"
    local = type(cls.__name__, (cls,), constants) if constants else cls
    return local(**{k: v for k, v in settings.items() if k in names})


def peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def finite_difference(f, x, h=1e-4):
    """Central-difference gradient of a scalar function at array `x`."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric, floor=1e-3):
    """Elementwise relative error with a floor on the denominator."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


@pytest.fixture
def rng():
    return np.random.default_rng(42)
