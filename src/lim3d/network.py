"""A miniature sparse segmentation network built from separable blocks.

Four depthwise separable convolution blocks (leaky-ReLU activations, bias
on the pointwise mix only) widen the channels, and a pointwise classifier
head maps the final block's activations to class logits. The activations
feeding the head double as per-voxel embeddings for contrastive mining.

Parameters live in a flat list of float64 numpy arrays; `forward` accepts
live autodiff tensors in their place and builds one node per layer, for
training and gradient checks. `predict` runs the same plain-array kernels
(`sparseconv.spatial_forward`, `pointwise_forward`, `log_softmax_parts`)
with no `Tensor`, so inference shares the one code path and keeps no
graph. The activations take the features' dtype (float32 from
`voxelize`); each layer casts its weights to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax_parts
from .errors import ShapeError
from .sparseconv import (ConvKernel, CostReport, Rulebook, apply_pointwise, apply_spatial,
                         build_rulebook, conv_cost, glorot_kernel, pointwise_forward,
                         spatial_forward)
from .voxel import SparseVoxelTensor

__all__ = ["LayerSpec", "MiniSegNet", "mini_backbone_topology", "topology_cost"]

DEFAULT_WIDTHS = (16, 32, 64, 64)


@dataclass(frozen=True)
class LayerSpec:
    kind: str            # "separable" | "standard" | "pointwise"
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    bias: bool = True


def mini_backbone_topology(in_channels: int, n_classes: int,
                           widths: tuple[int, ...] = DEFAULT_WIDTHS,
                           kernel_size: int = 3) -> tuple[LayerSpec, ...]:
    layers = []
    prev = in_channels
    for w in widths:
        layers.append(LayerSpec("separable", prev, w, kernel_size, bias=True))
        prev = w
    layers.append(LayerSpec("pointwise", prev, n_classes, 1, bias=True))
    return tuple(layers)


def topology_cost(layers: tuple[LayerSpec, ...], active_sites: int,
                  neighbor_pairs: int | None = None) -> tuple[list[dict], CostReport]:
    """Per-layer and total cost, plus the standard-kernel comparison ratio.

    A separable layer costs a bias-free depthwise kernel plus a pointwise
    mix carrying the layer's bias; see `sparseconv.conv_cost`.
    """
    rows = []
    total = CostReport(0, 0)
    for layer in layers:
        m, n, d, bias = layer.in_channels, layer.out_channels, layer.kernel_size, layer.bias
        if layer.kind == "separable":
            c = (conv_cost("depthwise", m, m, d, False, active_sites, neighbor_pairs)
                 + conv_cost("pointwise", m, n, 1, bias, active_sites))
            standard = conv_cost("standard", m, n, d, bias, active_sites).trainable_params
        elif layer.kind in ("standard", "pointwise"):
            c = conv_cost(layer.kind, m, n, d, bias, active_sites, neighbor_pairs)
            standard = c.trainable_params
        else:
            raise ShapeError(f"unknown layer kind {layer.kind!r}")
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
        self._templates: list[tuple[ConvKernel, ConvKernel | None]] = []
        self.params: list[np.ndarray] = []
        prev = in_channels
        for w in self.widths:
            dw = glorot_kernel("depthwise", prev, prev, kernel_size, rng)
            pw = glorot_kernel("pointwise", prev, w, 1, rng, bias=True)
            self._templates.append((dw, pw))
            self.params.extend([dw.weights.copy(), pw.weights.copy(), pw.bias.copy()])
            prev = w
        head = glorot_kernel("pointwise", prev, n_classes, 1, rng, bias=True)
        self._templates.append((head, None))
        self.params.extend([head.weights.copy(), head.bias.copy()])

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

    def _rulebook(self, t: SparseVoxelTensor, rulebook: Rulebook | None) -> Rulebook:
        if t.channels != self.in_channels:
            raise ShapeError(f"tensor has {t.channels} channels, network expects {self.in_channels}")
        return rulebook if rulebook is not None else build_rulebook(t.coords, t.grid, self.kernel_size)

    def forward(self, t: SparseVoxelTensor, params: list[Tensor] | None = None,
                rulebook: Rulebook | None = None) -> tuple[Tensor, Tensor]:
        """Logits and embeddings for every active voxel, one autodiff node per
        layer.

        With `params` given (live tensors), gradients flow back into them;
        otherwise the stored arrays are used as constants.
        """
        rb = self._rulebook(t, rulebook)
        live = params if params is not None else [Tensor(p) for p in self.params]

        x = Tensor(t.features)
        pos = 0
        for dw, pw in self._templates[:-1]:
            x = apply_spatial(x, rb, dw, weights=live[pos])
            x = apply_pointwise(x, pw, weights=live[pos + 1], bias=live[pos + 2])
            x = x.leaky_relu(self.LEAK)
            pos += 3
        embeddings = x
        head, _ = self._templates[-1]
        logits = apply_pointwise(embeddings, head, weights=live[pos], bias=live[pos + 1])
        return logits, embeddings

    def predict(self, t: SparseVoxelTensor,
                rulebook: Rulebook | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Softmax probabilities (float64) and embeddings (in the features'
        dtype), computed by `forward`'s kernels on plain arrays: no `Tensor`,
        no graph."""
        nb = self._rulebook(t, rulebook).neighbors
        p = self.params
        x = t.features
        for pos in range(0, 3 * len(self.widths), 3):
            x = spatial_forward(x, nb, p[pos])
            x = pointwise_forward(x, p[pos + 1], p[pos + 2])
            x = np.where(x > 0, x, self.LEAK * x)
        log_probs, _, _ = log_softmax_parts(pointwise_forward(x, *p[-2:]), axis=1)
        return np.exp(log_probs), x
