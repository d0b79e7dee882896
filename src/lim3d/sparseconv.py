"""Submanifold sparse convolutions on cylindrical voxel grids.

The spatial kernels never dilate activity: the output active-site set is
exactly the input active-site set, and each output sums kernel taps only
over active neighbors. The azimuth axis wraps circularly (cylindrical
topology); taps falling outside the radius or height extent contribute
nothing.

A `Rulebook` is a neighbor table: per active site and kernel tap, the
input row read, or the sentinel ``n_sites`` for an inactive or off-grid
cell. A spatial convolution is one autodiff node: it pads its input with
a zero sentinel row, then gathers and contracts the neighbor rows of
`SPATIAL_BLOCK` sites at a time. If tap ``k`` of site ``o`` reads row
``i``, tap ``K-1-k`` of site ``i`` reads row ``o`` (across the azimuth wrap
too), so one gather of the upstream gradient gives the input gradient
(kernel mirrored) and the weight gradient (input rows, taps flipped back).
A convolution computes in its input's dtype (float32 for voxelized
features); float64 weights are cast in, and their gradients cast back.

A depthwise separable convolution is the composition of a depthwise
spatial kernel (one filter per channel) and a pointwise 1x1x1 channel mix.
For kernel size ``D`` it needs ``M*D^3 + M*N`` weights against the
``M*N*D^3`` of a standard kernel. ``backward()`` on any scalar of the output
yields exact gradients for weights, biases and input features.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import DomainError, ShapeError, ValidationError
from .voxel import CylGridSpec, SparseVoxelTensor

__all__ = [
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
    "conv_cost",
    "cost",
]

KERNEL_KINDS = ("standard", "depthwise", "pointwise")

# Sites per gathered block: (256, 27, 64) float32 is 1.8 MB; a toy frame fits in one.
SPATIAL_BLOCK = 256


@dataclass(frozen=True)
class ConvKernel:
    """Weights for one convolution.

    Weight shapes by kind:
      * ``standard``:  ``(D, D, D, in_channels, out_channels)``
      * ``depthwise``: ``(D, D, D, in_channels)`` with in == out channels
      * ``pointwise``: ``(in_channels, out_channels)`` with kernel_size 1
    """

    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int
    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DomainError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        d, m, n = self.kernel_size, self.in_channels, self.out_channels
        if self.kind == "pointwise":
            if d != 1:
                raise DomainError("pointwise kernels require kernel_size == 1")
            expect = (m, n)
        else:
            if d < 1 or d % 2 == 0:
                raise DomainError(f"spatial kernel_size must be odd, got {d}")
            if self.kind == "depthwise":
                if m != n:
                    raise ShapeError("depthwise kernels require in_channels == out_channels")
                expect = (d, d, d, m)
            else:
                expect = (d, d, d, m, n)
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

    @property
    def n_params(self) -> int:
        return self.weights.size + (0 if self.bias is None else self.bias.size)


def identity_kernel(kind: str, channels: int, kernel_size: int = 3) -> ConvKernel:
    """Kernel whose output equals its input (center tap = identity map)."""
    c = (kernel_size - 1) // 2
    if kind == "standard":
        w = np.zeros((kernel_size,) * 3 + (channels, channels))
        w[c, c, c] = np.eye(channels)
    elif kind == "depthwise":
        w = np.zeros((kernel_size,) * 3 + (channels,))
        w[c, c, c] = 1.0
    elif kind == "pointwise":
        return ConvKernel("pointwise", channels, channels, 1, np.eye(channels))
    else:
        raise DomainError(f"unknown kernel kind {kind!r}")
    return ConvKernel(kind, channels, channels, kernel_size, w)


def glorot_kernel(kind: str, in_channels: int, out_channels: int,
                  kernel_size: int, rng: np.random.Generator,
                  bias: bool = False) -> ConvKernel:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    d3 = kernel_size ** 3
    if kind == "standard":
        fan_in, fan_out = in_channels * d3, out_channels * d3
        shape = (kernel_size,) * 3 + (in_channels, out_channels)
    elif kind == "depthwise":
        fan_in = fan_out = d3
        shape = (kernel_size,) * 3 + (in_channels,)
    elif kind == "pointwise":
        fan_in, fan_out = in_channels, out_channels
        shape = (in_channels, out_channels)
    else:
        raise DomainError(f"unknown kernel kind {kind!r}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
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
# Forward passes (autodiff-traced)
# ---------------------------------------------------------------------------


def apply_spatial(features: Tensor | np.ndarray, rulebook: Rulebook,
                  kernel: ConvKernel,
                  weights: Tensor | None = None,
                  bias: Tensor | None = None) -> Tensor:
    """Standard or depthwise spatial convolution as one autodiff node.

    It gathers and contracts `SPATIAL_BLOCK` sites at a time, never all
    ``(n_sites, K, C)`` neighbor rows; its backward pass takes both the
    input and the weight gradient from one gather of the upstream gradient.

    `weights`/`bias` override the kernel arrays with live tensors during
    training; otherwise the kernel arrays enter the graph as constants.
    It computes in the dtype of `features`, with the weights and bias cast in.
    """
    x = as_tensor(features)
    if x.shape[1] != kernel.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}")
    if rulebook.kernel_size != kernel.kernel_size:
        raise ShapeError("rulebook kernel size does not match the kernel")
    dtype = x.data.dtype
    w = as_tensor(kernel.weights if weights is None else weights).astype(dtype)
    nb = rulebook.neighbors
    n, k3 = nb.shape
    flat_w = w.data.reshape((k3,) + w.shape[3:])  # (K, C) or (K, M, N)
    depthwise = kernel.kind == "depthwise"

    def blocks(rows: np.ndarray):  # (site slice, its (b, K, C) gather), sentinel rows read zeros
        padded = np.concatenate([rows, np.zeros((1, rows.shape[1]), dtype)])
        for start in range(0, n, SPATIAL_BLOCK):
            yield slice(start, start + SPATIAL_BLOCK), padded[nb[start:start + SPATIAL_BLOCK]]

    def contract(gathered: np.ndarray, taps: np.ndarray) -> np.ndarray:
        if depthwise:
            return np.einsum("nkc,kc->nc", gathered, taps)
        return gathered.reshape(len(gathered), -1) @ taps.reshape(-1, taps.shape[-1])

    def backward(g):
        g_x = np.empty(x.shape, dtype) if x.requires_grad else None
        g_w = np.zeros(flat_w.shape, dtype)  # taps flipped: row k sums x[i] * g[nb[i, k]] over sites i
        for block, g_nb in blocks(g):
            if g_x is not None:
                # Mirrored kernel: taps reversed, channel axes swapped (a no-op for depthwise).
                g_x[block] = contract(g_nb, np.swapaxes(flat_w[::-1], 1, -1))
            if depthwise:
                g_w += np.einsum("nkc,nc->kc", g_nb, x.data[block])
            else:
                g_w += np.einsum("nkc,nm->kmc", g_nb, x.data[block], optimize=True)
        return g_x, g_w[::-1].reshape(w.shape)

    out = np.empty((n, kernel.out_channels), dtype)
    for block, x_nb in blocks(x.data):
        out[block] = contract(x_nb, flat_w)
    out = Tensor(out, _parents=(x, w), _backward=backward)
    if kernel.bias is not None or bias is not None:
        out = out + as_tensor(kernel.bias if bias is None else bias).astype(dtype)
    return out


def apply_pointwise(features: Tensor | np.ndarray, kernel: ConvKernel,
                    weights: Tensor | None = None,
                    bias: Tensor | None = None) -> Tensor:
    """Per-site channel mix in the dtype of `features`, as `apply_spatial`."""
    x = as_tensor(features)
    if x.shape[1] != kernel.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, kernel expects {kernel.in_channels}")
    dtype = x.data.dtype
    out = x @ as_tensor(kernel.weights if weights is None else weights).astype(dtype)
    if kernel.bias is not None or bias is not None:
        out = out + as_tensor(kernel.bias if bias is None else bias).astype(dtype)
    return out


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
    if kind not in KERNEL_KINDS:
        raise DomainError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    if active_sites < 0:
        raise DomainError("active_sites must be nonnegative")
    d3 = kernel_size ** 3
    per_pair = in_channels if kind == "depthwise" else in_channels * out_channels
    if kind == "pointwise":
        params, pairs = per_pair, active_sites
    else:
        params = per_pair * d3
        pairs = neighbor_pairs if neighbor_pairs is not None else active_sites * d3
    mult_adds = pairs * per_pair if active_sites else 0
    return CostReport(params + (out_channels if bias else 0), int(mult_adds))


def cost(kernel, active_sites: int, neighbor_pairs: int | None = None) -> CostReport:
    """Trainable parameters and multiply-adds for one forward pass.

    `kernel` is a ConvKernel or a ``(depthwise, pointwise)`` pair; see
    `conv_cost` for how the multiply-adds are counted.
    """
    if isinstance(kernel, tuple):
        dw, pw = kernel
        if dw.kind != "depthwise" or pw.kind != "pointwise":
            raise DomainError("a kernel pair must be (depthwise, pointwise)")
        return cost(dw, active_sites, neighbor_pairs) + cost(pw, active_sites)
    return conv_cost(kernel.kind, kernel.in_channels, kernel.out_channels, kernel.kernel_size,
                     kernel.bias is not None, active_sites, neighbor_pairs)
