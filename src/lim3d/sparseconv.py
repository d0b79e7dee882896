"""Submanifold sparse convolutions on cylindrical voxel grids.

The spatial kernels never dilate activity: the output active-site set is
exactly the input active-site set, and each output sums kernel taps only
over active neighbors. The azimuth axis wraps circularly (cylindrical
topology); taps falling outside the radius or height extent contribute
nothing.

A `Rulebook` is a neighbor table: per active site and kernel tap, the
input row read, or the sentinel ``n_sites`` for an inactive or off-grid
cell. `spatial_forward` pads its input with a zero sentinel row, then
gathers (``np.take``) and contracts the neighbor rows of `SPATIAL_BLOCK`
sites at a time. If tap ``k`` of site ``o`` reads row ``i``, tap ``K-1-k``
of site ``i`` reads row ``o`` (across the azimuth wrap too), so in
`spatial_backward` one gather of the upstream gradient gives the input
gradient (kernel mirrored once per call) and the weight gradient (input
rows, taps flipped back). These plain-array kernels, and
`pointwise_forward`, serve inference directly; `apply_spatial` and
`apply_pointwise` wrap them as one autodiff node per convolution, bias
included. A convolution computes in its input's dtype (float32 for
voxelized features); float64 weights are cast in inside the node, and
their gradients cast back.

A `ConvSpec` names one convolution, and its `weight_shape` is the one
per-kind weight layout. Given live `weights`, a node's weights and bias are
its `weights` and `bias` arguments, and a `ConvSpec` may be its kernel;
otherwise both come from the `ConvKernel`. `conv_cost` counts one
convolution; `network.layer_kernels` says which convolutions a layer runs.
``backward()`` on any scalar of the output yields exact gradients for
weights, biases and input features.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import DomainError, ShapeError, ValidationError, is_count
from .voxel import CylGridSpec, SparseVoxelTensor

__all__ = [
    "ConvSpec",
    "ConvKernel",
    "CostReport",
    "identity_kernel",
    "glorot_kernel",
    "Rulebook",
    "build_rulebook",
    "submanifold_conv",
    "sparse_pointwise_conv",
    "separable_conv",
    "apply_spatial",
    "apply_pointwise",
    "spatial_forward",
    "spatial_backward",
    "pointwise_forward",
    "conv_cost",
]

# Sites per gathered block: (256, 27, 64) float32 is 1.8 MB; a toy frame fits in one.
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
        """The one per-kind weight layout; an unknown kind, or a channel count
        or kernel size that is not an integer >= 1, raises `DomainError`."""
        d, m, n = self.kernel_size, self.in_channels, self.out_channels
        if not all(map(is_count, (d, m, n))):
            raise DomainError(f"channel counts and kernel size must be integers >= 1, got "
                              f"in={m!r}, out={n!r}, kernel_size={d!r}")
        shapes = {"standard": (d, d, d, m, n), "depthwise": (d, d, d, m), "pointwise": (m, n)}
        if self.kind not in shapes:
            raise DomainError(f"kernel kind must be one of {tuple(shapes)}, got {self.kind!r}")
        return shapes[self.kind]


@dataclass(frozen=True)
class ConvKernel:
    """One convolution's weights, of its `ConvSpec.weight_shape`, and bias."""

    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int
    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        d, m, n = self.kernel_size, self.in_channels, self.out_channels
        expect = ConvSpec(self.kind, m, n, d, self.bias is not None).weight_shape
        if self.kind == "pointwise":
            if d != 1:
                raise DomainError("pointwise kernels require kernel_size == 1")
        elif d % 2 == 0:
            raise DomainError(f"spatial kernel_size must be odd, got {d}")
        elif self.kind == "depthwise" and m != n:
            raise ShapeError("depthwise kernels require in_channels == out_channels")
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.shape != expect:
            raise ShapeError(f"{self.kind} weights must have shape {expect}, got {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValidationError("kernel weights must be finite")
        object.__setattr__(self, "weights", weights)
        if self.bias is not None:
            bias = np.ascontiguousarray(self.bias, dtype=np.float64).reshape(-1)
            if bias.shape != (n,):
                raise ShapeError(f"bias must have shape ({n},), got {bias.shape}")
            object.__setattr__(self, "bias", bias)


def identity_kernel(kind: str, channels: int, kernel_size: int = 3) -> ConvKernel:
    """Kernel whose output equals its input (center tap = identity map)."""
    d = 1 if kind == "pointwise" else kernel_size
    w = np.zeros(ConvSpec(kind, channels, channels, d, False).weight_shape)
    center = w[((d - 1) // 2,) * 3] if w.ndim > 2 else w
    center[...] = np.eye(channels) if center.ndim == 2 else 1.0
    return ConvKernel(kind, channels, channels, d, w)


def glorot_kernel(kind: str, in_channels: int, out_channels: int,
                  kernel_size: int, rng: np.random.Generator,
                  bias: bool = False) -> ConvKernel:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), fans from the weight shape."""
    shape = ConvSpec(kind, in_channels, out_channels, kernel_size, bias).weight_shape
    size = prod(shape)
    limit = np.sqrt(6.0 / (size // out_channels + size // in_channels))
    weights = rng.uniform(-limit, limit, shape)
    b = np.zeros(out_channels) if bias else None
    return ConvKernel(kind, in_channels, out_channels, kernel_size, weights, bias=b)


# ---------------------------------------------------------------------------
# Rulebook: per active site, its neighbor row at every kernel tap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rulebook:
    """``neighbors[o, k]`` is the input row tap ``k`` of site ``o`` reads, or
    the sentinel ``n_sites``. Taps run over ``(d_rho, d_phi, d_z)`` in C
    order, as the flattened weights do, so tap ``K-1-k`` negates tap ``k``."""

    kernel_size: int
    neighbors: np.ndarray  # (n_sites, kernel_size**3) intp, sentinel n_sites

    @property
    def n_sites(self) -> int:
        return len(self.neighbors)

    @property
    def n_pairs(self) -> int:
        """Neighbor pairs visited: the non-sentinel entries."""
        return int(np.count_nonzero(self.neighbors < self.n_sites))


def build_rulebook(coords: np.ndarray, grid: CylGridSpec, kernel_size: int) -> Rulebook:
    """Neighbor table for every kernel tap over the given active sites."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    n = len(coords)
    keys = grid.cell_key(*coords.T)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    r = (kernel_size - 1) // 2
    offsets = np.array(list(product(range(-r, r + 1), repeat=3)), dtype=np.int64)
    cells = coords[:, None, :] + offsets  # (n, K, 3)
    n_rho, n_phi, n_z = cells[..., 0], cells[..., 1] % grid.n_phi, cells[..., 2]
    valid = (n_rho >= 0) & (n_rho < grid.n_rho) & (n_z >= 0) & (n_z < grid.n_z)
    neigh_keys = grid.cell_key(n_rho, n_phi, n_z)
    pos = np.minimum(np.searchsorted(sorted_keys, neigh_keys), n - 1)
    found = valid & (sorted_keys[pos] == neigh_keys)
    neighbors = np.where(found, order[pos], n).astype(np.intp)
    neighbors.setflags(write=False)
    return Rulebook(kernel_size=kernel_size, neighbors=neighbors)


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
    neighbor table, in the dtype of `x`; `weights` and `bias` are cast in."""
    taps = _taps(weights, x.dtype)
    out = np.empty((len(neighbors), taps.shape[-1]), x.dtype)
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


def pointwise_forward(x: np.ndarray, weights: np.ndarray,
                      bias: np.ndarray | None = None) -> np.ndarray:
    """Per-site channel mix in the dtype of `x`; `weights` and `bias` are cast in."""
    out = x @ weights.astype(x.dtype, copy=False)
    if bias is not None:
        out += bias.astype(x.dtype, copy=False)
    return out


def _node_inputs(features, kernel: ConvKernel | ConvSpec, weights, bias):
    """`features`, the weights and the bias (when there is one) as tensors:
    `weights` and `bias` if `weights` is given, else the kernel's arrays."""
    x = as_tensor(features)
    if x.shape[1] != kernel.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}")
    if weights is None:
        if isinstance(kernel, ConvSpec):
            raise ValidationError("a ConvSpec names only a shape: the node needs live `weights`")
        weights, bias = kernel.weights, kernel.bias
    w = as_tensor(weights)
    return (x, w) if bias is None else (x, w, as_tensor(bias))


def apply_spatial(features: Tensor | np.ndarray, rulebook: Rulebook,
                  kernel: ConvKernel | ConvSpec,
                  weights: Tensor | None = None,
                  bias: Tensor | None = None) -> Tensor:
    """Standard or depthwise spatial convolution, bias included, as one
    autodiff node over `spatial_forward` and `spatial_backward`.

    With live `weights` (training), the weights and bias are `weights` and
    `bias`, and `kernel` may be a `ConvSpec`; otherwise the `ConvKernel`'s
    arrays enter as constants. It computes in the dtype of `features`; the
    weight and bias gradients are cast back to their tensors' dtype by
    `Tensor.backward`.
    """
    inputs = _node_inputs(features, kernel, weights, bias)
    if rulebook.kernel_size != kernel.kernel_size:
        raise ShapeError("rulebook kernel size does not match the kernel")
    x, w = inputs[:2]
    nb = rulebook.neighbors
    b = inputs[2].data if len(inputs) == 3 else None

    def backward(g):
        g_x, g_w = spatial_backward(g, x.data, nb, w.data, x.requires_grad)
        return (g_x, g_w) if b is None else (g_x, g_w, g.sum(axis=0))

    return Tensor(spatial_forward(x.data, nb, w.data, b), _parents=inputs, _backward=backward)


def apply_pointwise(features: Tensor | np.ndarray, kernel: ConvKernel | ConvSpec,
                    weights: Tensor | None = None,
                    bias: Tensor | None = None) -> Tensor:
    """Per-site channel mix as one autodiff node over `pointwise_forward`,
    in the dtype of `features`, as `apply_spatial`."""
    inputs = _node_inputs(features, kernel, weights, bias)
    x, w = inputs[:2]
    b = inputs[2].data if len(inputs) == 3 else None

    def backward(g):
        g_x = g @ w.data.astype(x.data.dtype, copy=False).T if x.requires_grad else None
        g_w = x.data.T @ g
        return (g_x, g_w) if b is None else (g_x, g_w, g.sum(axis=0))

    return Tensor(pointwise_forward(x.data, w.data, b), _parents=inputs, _backward=backward)


def submanifold_conv(t: SparseVoxelTensor, kernel: ConvKernel,
                     rulebook: Rulebook | None = None) -> SparseVoxelTensor:
    """Spatial convolution preserving the active-site set exactly."""
    if kernel.kind not in ("standard", "depthwise"):
        raise DomainError("submanifold_conv takes a standard or depthwise kernel")
    rb = rulebook if rulebook is not None else build_rulebook(t.coords, t.grid, kernel.kernel_size)
    return t.with_features(apply_spatial(t.features, rb, kernel).data)


def sparse_pointwise_conv(t: SparseVoxelTensor, kernel: ConvKernel) -> SparseVoxelTensor:
    """Per-site channel mix; the active set is untouched."""
    if kernel.kind != "pointwise":
        raise DomainError("sparse_pointwise_conv takes a pointwise kernel")
    return t.with_features(apply_pointwise(t.features, kernel).data)


def separable_conv(t: SparseVoxelTensor, depthwise: ConvKernel,
                   pointwise: ConvKernel) -> SparseVoxelTensor:
    """Depthwise spatial convolution followed by a pointwise channel mix."""
    if depthwise.kind != "depthwise" or pointwise.kind != "pointwise":
        raise DomainError("separable_conv takes (depthwise, pointwise) kernels")
    if depthwise.out_channels != pointwise.in_channels:
        raise ShapeError(
            f"depthwise outputs {depthwise.out_channels} channels, "
            f"pointwise expects {pointwise.in_channels}")
    return sparse_pointwise_conv(submanifold_conv(t, depthwise), pointwise)


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


def conv_cost(kind: str, in_channels: int, out_channels: int, kernel_size: int,
              bias: bool, active_sites: int, neighbor_pairs: int | None = None) -> CostReport:
    """Trainable parameters and multiply-adds of one convolution from its shape.

    Pointwise kernels ignore `kernel_size` and cost one channel mix per
    site. Spatial kernels cost one mix per neighbor pair visited; when
    `neighbor_pairs` is not given the fully-active neighborhood bound
    ``active_sites * kernel_size**3`` is assumed.
    """
    params = prod(ConvSpec(kind, in_channels, out_channels, kernel_size, bias).weight_shape)
    if active_sites < 0:
        raise DomainError("active_sites must be nonnegative")
    taps = 1 if kind == "pointwise" else kernel_size ** 3
    if neighbor_pairs is None or kind == "pointwise":
        neighbor_pairs = active_sites * taps
    mult_adds = neighbor_pairs * (params // taps) if active_sites else 0
    return CostReport(params + (out_channels if bias else 0), int(mult_adds))
