"""A miniature sparse segmentation network, built, run and costed from its
topology, a tuple of `LayerSpec`s.

`layer_kernels` is the one rule that turns a layer into the `ConvSpec`s
it runs: a separable layer is a bias-free depthwise kernel, then a
pointwise mix that carries the layer's bias; a standard or pointwise layer
is one kernel. `MiniSegNet` draws its weights, `forward` and `predict` run,
and `topology_cost` counts by walking that rule. The mini backbone's four
separable blocks widen the channels and a pointwise head gives class
logits; the head's input doubles as per-voxel embeddings for contrastive
mining (the input features, with no blocks). Each block ends in a leaky
ReLU, which its pointwise mix applies to its own output (the `leak` of
`pointwise_forward` and `apply_pointwise`), so there is no activation node.

Parameters are a flat list of float64 arrays, per convolution its weights
and then its bias, if any. Both entry points take the frame's rulebook.
`forward` takes live autodiff tensors for the parameters and builds one
node per convolution from its `ConvSpec` and them. `predict`, the one
inference path, runs the same kernels on the stored arrays with no
`Tensor`, so it keeps no graph. Activations take the features' dtype
(float32 from `voxelize`); each layer casts its weights to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax_parts
from .errors import DomainError, ShapeError, is_count, is_kernel_size
from .sparseconv import (ConvSpec, CostReport, Rulebook, apply_pointwise, apply_spatial,
                         conv_cost, glorot_weights, pointwise_forward, spatial_forward)
from .voxel import SparseVoxelTensor

__all__ = ["LayerSpec", "MiniSegNet", "layer_kernels", "mini_backbone_topology", "topology_cost"]

DEFAULT_WIDTHS = (16, 32, 64, 64)
LAYER_KINDS = ("separable", "standard", "pointwise")


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a kind from `LAYER_KINDS`, integer channel counts of at
    least one in and out, an odd integer kernel size, which a pointwise
    layer ignores, and a bool `bias`."""

    kind: str
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    bias: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DomainError(f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        if not (is_count(self.in_channels) and is_count(self.out_channels)):
            raise DomainError(f"a layer needs an integer count of channels in and out, at least "
                              f"one, got {self.in_channels!r} -> {self.out_channels!r}")
        if not is_kernel_size(self.kernel_size):
            raise DomainError(f"kernel_size must be an odd positive integer, got {self.kernel_size!r}")
        if not isinstance(self.bias, bool):
            raise DomainError(f"bias must be True or False, got {self.bias!r}")


def layer_kernels(spec: LayerSpec) -> tuple[ConvSpec, ...]:
    """The convolutions `spec` runs, in order."""
    m, n, d = spec.in_channels, spec.out_channels, spec.kernel_size
    if spec.kind == "separable":
        return ConvSpec("depthwise", m, m, d, False), ConvSpec("pointwise", m, n, 1, spec.bias)
    return (ConvSpec(spec.kind, m, n, 1 if spec.kind == "pointwise" else d, spec.bias),)


def mini_backbone_topology(in_channels: int, n_classes: int,
                           widths: tuple[int, ...] = DEFAULT_WIDTHS,
                           kernel_size: int = 3) -> tuple[LayerSpec, ...]:
    """A separable block per width, then a pointwise head. A `kernel_size`
    that is not an odd integer >= 1 raises `DomainError`, with or without blocks."""
    if not is_kernel_size(kernel_size):
        raise DomainError(f"kernel_size must be an odd positive integer, got {kernel_size!r}")
    chans = (in_channels,) + tuple(widths)
    return tuple(LayerSpec("separable", m, n, kernel_size) for m, n in zip(chans, chans[1:])) + (
        LayerSpec("pointwise", chans[-1], n_classes, 1),)


def topology_cost(layers: tuple[LayerSpec, ...], active_sites: int,
                  neighbor_pairs: int | None = None) -> tuple[list[dict], CostReport]:
    """Per-layer and total cost, the sum of `sparseconv.conv_cost` over each
    layer's `layer_kernels`, plus the parameters of a standard kernel of the
    same shape for comparison."""
    rows = []
    total = CostReport(0, 0)
    for layer in layers:
        m, n, d = layer.in_channels, layer.out_channels, layer.kernel_size
        c = sum((conv_cost(k, active_sites, neighbor_pairs) for k in layer_kernels(layer)),
                CostReport(0, 0))
        standard = (c.trainable_params if layer.kind == "pointwise"
                    else conv_cost(ConvSpec("standard", m, n, d, layer.bias), 0).trainable_params)
        rows.append({
            "kind": layer.kind,
            "in_channels": m,
            "out_channels": n,
            "kernel_size": d,
            "trainable_params": c.trainable_params,
            "mult_adds": c.mult_adds,
            "standard_params": standard,
            "params_ratio_vs_standard": round(standard / c.trainable_params, 4),
        })
        total = total + c
    return rows, total


class MiniSegNet:
    """Separable-convolution stack with a pointwise classifier head."""

    LEAK = 0.1

    def __init__(self, in_channels: int, n_classes: int,
                 widths: tuple[int, ...] = DEFAULT_WIDTHS,
                 kernel_size: int = 3, seed: int = 0):
        self.in_channels = in_channels
        self.n_classes = n_classes
        self.widths = tuple(widths)
        self.kernel_size = kernel_size
        self.topology = mini_backbone_topology(in_channels, n_classes, self.widths, kernel_size)

        rng = np.random.default_rng(seed)
        self.params: list[np.ndarray] = []
        for spec in self.topology:
            for k in layer_kernels(spec):
                self.params.append(glorot_weights(k, rng))
                if k.bias:
                    self.params.append(np.zeros(k.out_channels))

    # -- parameter plumbing ------------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def load_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.n_params:
            raise ShapeError(f"flat vector has {vec.size} entries, network expects {self.n_params}")
        pos = 0
        for i, p in enumerate(self.params):
            self.params[i] = vec[pos:pos + p.size].reshape(p.shape).copy()
            pos += p.size

    def param_tensors(self) -> list[Tensor]:
        return [Tensor(p, requires_grad=True) for p in self.params]

    def clone(self) -> "MiniSegNet":
        other = MiniSegNet(self.in_channels, self.n_classes, self.widths,
                           self.kernel_size, seed=0)
        other.load_flat(self.flat())
        return other

    # -- forward -------------------------------------------------------------

    def _check_channels(self, t: SparseVoxelTensor) -> None:
        if t.channels != self.in_channels:
            raise ShapeError(f"tensor has {t.channels} channels, network expects {self.in_channels}")

    def _walk(self, x, params: list, conv):
        """Logits and embeddings: `conv(x, ConvSpec, weights, bias or None,
        leak or None)` per convolution of `layer_kernels`, taking `params` in
        order. Every layer but the head gives its last convolution, a
        separable block's pointwise mix, the leak of its activation."""
        it, emb, last = iter(params), x, len(self.topology) - 1
        for i, spec in enumerate(self.topology):
            kernels = layer_kernels(spec)
            for k in kernels:
                leak = self.LEAK if i < last and k is kernels[-1] else None
                x = conv(x, k, next(it), next(it) if k.bias else None, leak)
            if i < last:
                emb = x
        return x, emb

    def forward(self, t: SparseVoxelTensor, params: list[Tensor],
                rulebook: Rulebook) -> tuple[Tensor, Tensor]:
        """Logits and embeddings for every active voxel, one autodiff node per
        convolution over `rulebook`, `t`'s neighbour table; gradients flow
        back into `params`, live tensors in the order of `self.params`."""
        self._check_channels(t)

        def conv(x, k, w, b, leak):
            if k.kind == "pointwise":
                return apply_pointwise(x, k, weights=w, bias=b, leak=leak)
            return apply_spatial(x, rulebook, k, weights=w, bias=b)

        return self._walk(Tensor(t.features), params, conv)

    def predict(self, t: SparseVoxelTensor, rulebook: Rulebook) -> tuple[np.ndarray, np.ndarray]:
        """Softmax probabilities (float64) and embeddings (in the features'
        dtype), computed by `forward`'s kernels over `rulebook` with the
        stored weights on plain arrays: no `Tensor`, no graph."""
        self._check_channels(t)
        logits, emb = self._walk(
            t.features, self.params,
            lambda x, k, w, b, leak: (pointwise_forward(x, w, b, leak) if k.kind == "pointwise"
                                      else spatial_forward(x, rulebook.neighbors, w, b)))
        log_probs, _, _ = log_softmax_parts(logits, axis=1)
        return np.exp(log_probs), emb
