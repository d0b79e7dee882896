"""Submanifold sparse convolutions on cylindrical voxel grids.

The spatial kernels never dilate activity: the output active-site set is
exactly the input active-site set, and each output sums kernel taps only
over active neighbors. The azimuth axis wraps circularly (cylindrical
topology); taps falling outside the radius or height extent contribute
nothing.

A `Rulebook` is a neighbor table: per active site and kernel tap, the
input row read, or the sentinel ``n_sites`` for an inactive or off-grid
cell, built once per frame by lookup in a table of the grid's cells and
read by every spatial layer. Only `spatial_forward` checks it: a table that
is not (input rows, kernel taps) raises `ShapeError`. It pads its input
with a zero sentinel row, then gathers (``np.take``) and contracts the
neighbor rows of `SPATIAL_BLOCK` sites at a time. If tap ``k`` of site
``o`` reads row ``i``, tap ``K-1-k`` of site ``i`` reads row ``o`` (across
the azimuth wrap too), so in `spatial_backward` one gather of the upstream
gradient gives the input gradient (kernel mirrored once per call) and the
weight gradient (input rows, taps flipped back). These plain-array
kernels, and `pointwise_forward`, serve inference directly;
`apply_spatial` and `apply_pointwise` wrap them as one autodiff node per
convolution, bias included. Given a `leak`, the pointwise mix also runs the
leaky ReLU on its output in place, and its backward takes each entry's
slope from that output's sign, so no pre-activation or mask is kept. A
convolution computes in its input's dtype (float32 for voxelized features);
float64 weights are cast in inside the node, and their gradients cast back.

A convolution is a `ConvSpec`, which names its shape, and its weight
arrays. The spec's `weight_shape` is the one per-kind weight layout and the
one check of the shape: `glorot_weights` draws weights of it, and each node
checks the weights and bias it is given against it. `conv_cost` counts one
convolution; `network.layer_kernels` says which convolutions a layer runs.
``backward()`` on any scalar of the output yields exact gradients for
weights, biases and input features.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import DomainError, ShapeError, ValidationError, is_count
from .voxel import CylGridSpec

__all__ = [
    "ConvSpec",
    "CostReport",
    "glorot_weights",
    "Rulebook",
    "build_rulebook",
    "apply_spatial",
    "apply_pointwise",
    "spatial_forward",
    "spatial_backward",
    "pointwise_forward",
    "conv_cost",
]

# Sites per block of a gather or of the rulebook: (256, 27, 64) float32 is
# 1.8 MB, and (256, 27) int64 is 55 kB; a toy frame fits in one.
SPATIAL_BLOCK = 256


class ConvSpec(NamedTuple):
    """One convolution, without its arrays."""

    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int
    bias: bool

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """The one per-kind weight layout. An unknown kind, a channel count or
        kernel size that is not an integer >= 1, a pointwise kernel of size
        other than 1 and an even spatial kernel size raise `DomainError`; a
        depthwise kernel with in != out channels raises `ShapeError`."""
        d, m, n = self.kernel_size, self.in_channels, self.out_channels
        if not all(map(is_count, (d, m, n))):
            raise DomainError(f"channel counts and kernel size must be integers >= 1, got "
                              f"in={m!r}, out={n!r}, kernel_size={d!r}")
        shapes = {"standard": (d, d, d, m, n), "depthwise": (d, d, d, m), "pointwise": (m, n)}
        if self.kind not in shapes:
            raise DomainError(f"kernel kind must be one of {tuple(shapes)}, got {self.kind!r}")
        if self.kind == "pointwise":
            if d != 1:
                raise DomainError("pointwise kernels require kernel_size == 1")
        elif d % 2 == 0:
            raise DomainError(f"spatial kernel_size must be odd, got {d}")
        elif self.kind == "depthwise" and m != n:
            raise ShapeError("depthwise kernels require in_channels == out_channels")
        return shapes[self.kind]


def glorot_weights(spec: ConvSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform weights in +-sqrt(6 / (fan_in + fan_out)), fans from `spec.weight_shape`."""
    shape = spec.weight_shape
    size = prod(shape)
    limit = np.sqrt(6.0 / (size // spec.out_channels + size // spec.in_channels))
    return rng.uniform(-limit, limit, shape)


# ---------------------------------------------------------------------------
# Rulebook: per active site, its neighbor row at every kernel tap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rulebook:
    """``neighbors[o, k]`` is the input row tap ``k`` of site ``o`` reads, or
    the sentinel ``n_sites``. Taps run over ``(d_rho, d_phi, d_z)`` in C
    order, as the flattened weights do, so tap ``K-1-k`` negates tap ``k``.
    It fits only the sites it was built from, as `spatial_forward` checks."""

    neighbors: np.ndarray  # (n_sites, kernel_size**3) intp, sentinel n_sites

    @property
    def n_sites(self) -> int:
        return len(self.neighbors)

    @property
    def n_pairs(self) -> int:
        """Neighbor pairs visited: the non-sentinel entries."""
        return int(np.count_nonzero(self.neighbors < self.n_sites))


def build_rulebook(coords: np.ndarray, grid: CylGridSpec, kernel_size: int) -> Rulebook:
    """Neighbor table for every kernel tap over the given active sites, read
    from an int32 table of each cell's row (or the sentinel ``n``). Padding
    that table by the kernel radius, the azimuth axis with wrapped copies of
    its cells and the others with the sentinel, puts each tap at a fixed
    flat offset from its site. `kernel_size` must be an odd integer >= 1,
    else `DomainError`; a coordinate outside `grid` or a repeated one, which
    the table shows as a cell holding another site's row, raises
    `ValidationError`."""
    if not is_count(kernel_size) or kernel_size % 2 == 0:
        raise DomainError(f"kernel_size must be an odd positive integer, got {kernel_size!r}")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    n, r = len(coords), (kernel_size - 1) // 2
    if n and (coords.min() < 0 or (coords >= grid.shape).any()):
        raise ValidationError(f"rulebook coordinates must lie in the {grid.shape} grid")
    table = np.full((grid.n_rho + 2 * r, grid.n_phi + 2 * r, grid.n_z + 2 * r), n, np.int32)
    cells, rows = tuple((coords + r).T), np.arange(n)
    table[cells] = rows
    if (table[cells] != rows).any():
        raise ValidationError("duplicate rulebook coordinates")
    ring = np.r_[:r, r + grid.n_phi:grid.n_phi + 2 * r]  # the azimuth padding
    table[:, ring] = table[:, r + (ring - r) % grid.n_phi]

    # Site (a, b, c) sits at (a + r, b + r, c + r) in the table, so its window
    # starts at (a, b, c). The flat index of each tap is replaced by its row
    # `SPATIAL_BLOCK` sites at a time.
    taps = np.ravel_multi_index(np.indices((kernel_size,) * 3).reshape(3, -1), table.shape)
    neighbors = np.add.outer(np.ravel_multi_index(coords.T, table.shape), taps)
    flat = table.ravel()
    for start in range(0, n, SPATIAL_BLOCK):
        block = neighbors[start:start + SPATIAL_BLOCK]
        block[...] = flat[block]
    neighbors.setflags(write=False)
    return Rulebook(neighbors)


# ---------------------------------------------------------------------------
# Plain-array kernels, and the autodiff nodes that wrap them
# ---------------------------------------------------------------------------


def _gathered_blocks(rows: np.ndarray, neighbors: np.ndarray):
    """(site slice, its (b, K, C) neighbor rows) per `SPATIAL_BLOCK` sites;
    the sentinel row reads zeros."""
    padded = np.concatenate([rows, np.zeros((1, rows.shape[1]), rows.dtype)])
    for start in range(0, len(neighbors), SPATIAL_BLOCK):
        block = slice(start, start + SPATIAL_BLOCK)
        yield block, np.take(padded, neighbors[block], axis=0)


def _contract(gathered: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Sum gathered rows against flattened taps: (K, C) depthwise, (K, M, N) standard."""
    if taps.ndim == 2:
        return np.einsum("nkc,kc->nc", gathered, taps)
    return gathered.reshape(len(gathered), -1) @ taps.reshape(-1, taps.shape[-1])


def _taps(weights: np.ndarray, dtype) -> np.ndarray:
    """Spatial weights cast to `dtype`, taps flattened to one leading axis."""
    return weights.astype(dtype, copy=False).reshape((-1,) + weights.shape[3:])


def spatial_forward(x: np.ndarray, neighbors: np.ndarray, weights: np.ndarray,
                    bias: np.ndarray | None = None) -> np.ndarray:
    """Standard or depthwise spatial convolution of the rows `x` over a
    neighbor table, in the dtype of `x`; `weights` and `bias` are cast in.
    A table that is not (rows of `x`, kernel taps) raises `ShapeError`."""
    taps = _taps(weights, x.dtype)
    if neighbors.shape != (len(x), len(taps)):
        raise ShapeError(f"rulebook {neighbors.shape} does not fit {len(x)} sites x {len(taps)} taps")
    out = np.empty((len(x), taps.shape[-1]), x.dtype)
    for block, x_nb in _gathered_blocks(x, neighbors):
        out[block] = _contract(x_nb, taps)
    if bias is not None:
        out += bias.astype(x.dtype, copy=False)
    return out


def spatial_backward(g: np.ndarray, x: np.ndarray, neighbors: np.ndarray,
                     weights: np.ndarray, input_grad: bool = True):
    """``(grad of x or None, grad of weights)`` of `spatial_forward` for the
    upstream gradient `g`, both in the dtype of `x`, from one gather of `g`:
    the input gradient through the mirrored kernel (taps reversed, channel
    axes swapped), the weight gradient with taps flipped back."""
    taps = _taps(weights, x.dtype)
    mirrored = np.ascontiguousarray(np.swapaxes(taps[::-1], 1, -1)) if input_grad else None
    g_x = np.empty(x.shape, x.dtype) if input_grad else None
    g_w = np.zeros(taps.shape, x.dtype)  # taps flipped: row k sums x[i] * g[nb[i, k]] over sites i
    for block, g_nb in _gathered_blocks(g, neighbors):
        if input_grad:
            g_x[block] = _contract(g_nb, mirrored)
        if taps.ndim == 2:
            g_w += np.einsum("nkc,nc->kc", g_nb, x[block])
        else:
            g_w += np.einsum("nkc,nm->kmc", g_nb, x[block], optimize=True)
    return g_x, g_w[::-1].reshape(weights.shape)


def pointwise_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None,
                      leak: float | None = None) -> np.ndarray:
    """Per-site channel mix in the dtype of `x`; `weights` and `bias` are cast
    in. With a `leak`, the leaky ReLU ``max(z, leak * z)`` then runs on the
    output in place, which for ``0 < leak < 1`` is ``where(z > 0, z, leak * z)``
    bit for bit, signed zeros included."""
    out = x @ weights.astype(x.dtype, copy=False)
    if bias is not None:
        out += bias.astype(x.dtype, copy=False)
    if leak is not None:
        np.maximum(out, out * leak, out=out)
    return out


def _node_inputs(features, kernel: ConvSpec, weights, bias):
    """`features`, `weights` and `bias` (when there is one) as tensors, each
    checked against `kernel`: a wrong shape raises `ShapeError`."""
    x, w = as_tensor(features), as_tensor(weights)
    if x.shape[1] != kernel.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}")
    if w.shape != kernel.weight_shape:
        raise ShapeError(f"{kernel.kind} weights must have shape {kernel.weight_shape}, "
                         f"got {w.shape}")
    if bias is None:
        return x, w
    b = as_tensor(bias)
    if b.shape != (kernel.out_channels,):
        raise ShapeError(f"bias must have shape ({kernel.out_channels},), got {b.shape}")
    return x, w, b


def apply_spatial(features: Tensor | np.ndarray, rulebook: Rulebook, kernel: ConvSpec,
                  weights: Tensor | np.ndarray,
                  bias: Tensor | np.ndarray | None = None) -> Tensor:
    """The standard or depthwise spatial convolution `kernel`, run with
    `weights` and `bias` as one autodiff node over `spatial_forward` and
    `spatial_backward`.

    It computes in the dtype of `features`; the weight and bias gradients
    are cast back to their tensors' dtype by `Tensor.backward`.
    """
    if kernel.kind == "pointwise":
        raise DomainError("apply_spatial takes a standard or depthwise kernel")
    inputs = _node_inputs(features, kernel, weights, bias)
    x, w = inputs[:2]
    nb = rulebook.neighbors
    b = inputs[2].data if len(inputs) == 3 else None

    def backward(g):
        g_x, g_w = spatial_backward(g, x.data, nb, w.data, x.requires_grad)
        return (g_x, g_w) if b is None else (g_x, g_w, g.sum(axis=0))

    return Tensor(spatial_forward(x.data, nb, w.data, b), _parents=inputs, _backward=backward)


def apply_pointwise(features: Tensor | np.ndarray, kernel: ConvSpec,
                    weights: Tensor | np.ndarray,
                    bias: Tensor | np.ndarray | None = None,
                    leak: float | None = None) -> Tensor:
    """Per-site channel mix as one autodiff node over `pointwise_forward`,
    in the dtype of `features`, as `apply_spatial`. With a `leak`, the node
    ends in the leaky ReLU; its backward reads the slope of each entry off
    the sign of the output, so no pre-activation or mask is kept."""
    if kernel.kind != "pointwise":
        raise DomainError("apply_pointwise takes a pointwise kernel")
    inputs = _node_inputs(features, kernel, weights, bias)
    x, w = inputs[:2]
    b = inputs[2].data if len(inputs) == 3 else None
    out = pointwise_forward(x.data, w.data, b, leak)

    def backward(g):
        if leak is not None:
            g = np.where(out > 0, g, g * leak)
        g_x = g @ w.data.astype(x.data.dtype, copy=False).T if x.requires_grad else None
        g_w = x.data.T @ g
        return (g_x, g_w) if b is None else (g_x, g_w, g.sum(axis=0))

    return Tensor(out, _parents=inputs, _backward=backward)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    trainable_params: int
    mult_adds: int

    def __post_init__(self):
        if self.trainable_params < 0 or self.mult_adds < 0:
            raise ValidationError("cost counts must be nonnegative")

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(self.trainable_params + other.trainable_params,
                          self.mult_adds + other.mult_adds)


def conv_cost(spec: ConvSpec, active_sites: int, neighbor_pairs: int | None = None) -> CostReport:
    """Trainable parameters and multiply-adds of one convolution from its spec.

    A pointwise kernel has size 1 (`ConvSpec.weight_shape` checks it) and
    costs one channel mix per site. A spatial kernel costs one mix per
    neighbor pair visited; when `neighbor_pairs` is not given the
    fully-active neighborhood bound ``active_sites * kernel_size**3`` is
    assumed.
    """
    params = prod(spec.weight_shape)
    if active_sites < 0:
        raise DomainError("active_sites must be nonnegative")
    taps = spec.kernel_size ** 3
    if neighbor_pairs is None or spec.kind == "pointwise":
        neighbor_pairs = active_sites * taps
    mult_adds = neighbor_pairs * (params // taps) if active_sites else 0
    return CostReport(params + (spec.out_channels if spec.bias else 0), int(mult_adds))
