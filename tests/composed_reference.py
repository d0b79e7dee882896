"""Composed-graph oracles for the fused autodiff nodes.

These are the library's earlier implementations, kept as references: each
layer and loss head is built from autodiff primitives (`astype`, `take`,
`abs`, `exp`, `log`, `sum`, ...), one node per numpy call, and the leaky
ReLU is its own node (`leaky_relu_reference`). The fused nodes in
`lim3d.sparseconv`, `lim3d.autodiff` and `lim3d.losses` repeat the same
numpy operations in the same order inside one backward, so on any input
the values and every gradient must agree bit for bit.
"""

import numpy as np

from lim3d.autodiff import Tensor, as_tensor
from lim3d.losses import _jaccard_grad
from lim3d.network import layer_kernels
from lim3d.sparseconv import SPATIAL_BLOCK


def apply_spatial_reference(features, rulebook, kernel, weights, bias=None):
    """Spatial convolution node over astype'd weights, plus a bias add node."""
    x = as_tensor(features)
    dtype = x.data.dtype
    w = as_tensor(weights).astype(dtype)
    nb = rulebook.neighbors
    n, k3 = nb.shape
    flat_w = w.data.reshape((k3,) + w.shape[3:])
    depthwise = kernel.kind == "depthwise"

    def blocks(rows):
        padded = np.concatenate([rows, np.zeros((1, rows.shape[1]), dtype)])
        for start in range(0, n, SPATIAL_BLOCK):
            yield slice(start, start + SPATIAL_BLOCK), padded[nb[start:start + SPATIAL_BLOCK]]

    def contract(gathered, taps):
        if depthwise:
            return np.einsum("nkc,kc->nc", gathered, taps)
        return gathered.reshape(len(gathered), -1) @ taps.reshape(-1, taps.shape[-1])

    def backward(g):
        g_x = np.empty(x.shape, dtype) if x.requires_grad else None
        g_w = np.zeros(flat_w.shape, dtype)
        for block, g_nb in blocks(g):
            if g_x is not None:
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
    if bias is not None:
        out = out + as_tensor(bias).astype(dtype)
    return out


def leaky_relu_reference(t, negative_slope=0.1):
    """The activation as a node of its own, which keeps its input's sign mask."""
    t = as_tensor(t)
    slope = float(negative_slope)
    mask = t.data > 0

    def backward(g):
        return (np.where(mask, g, g * slope),)

    return Tensor(np.where(mask, t.data, slope * t.data), _parents=(t,), _backward=backward)


def apply_pointwise_reference(features, kernel, weights, bias=None, leak=None):
    """Matmul node over astype'd weights, plus a bias add node and, with a
    `leak`, a leaky ReLU node."""
    x = as_tensor(features)
    dtype = x.data.dtype
    out = x @ as_tensor(weights).astype(dtype)
    if bias is not None:
        out = out + as_tensor(bias).astype(dtype)
    return out if leak is None else leaky_relu_reference(out, leak)


def log_softmax_reference(t, axis=-1):
    t = as_tensor(t).astype(np.float64)
    shift = np.max(t.data, axis=axis, keepdims=True)
    shifted = t - Tensor(shift)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax_reference(t, axis=-1):
    return log_softmax_reference(t, axis=axis).exp()


def lovasz_softmax_reference(probs, labels):
    """Per class: take, reshape, subtract, abs, take, multiply and sum nodes."""
    probs = as_tensor(probs)
    labels = np.asarray(labels, dtype=np.int64)
    n = probs.shape[0]
    terms = []
    for k in np.unique(labels).tolist():
        fg = (labels == k).astype(np.float64)
        p_k = probs.take([k], axis=1).reshape((n,))
        errors = (Tensor(fg) - p_k).abs()
        perm = np.argsort(-errors.data, kind="stable")
        weights = _jaccard_grad(fg[perm])
        terms.append((errors.take(perm) * Tensor(weights)).sum())
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def kl_consistency_reference(student_probs, teacher_probs):
    student = as_tensor(student_probs)
    teacher = np.asarray(teacher_probs, dtype=np.float64)
    t_entropy = float(np.sum(np.where(teacher > 0, teacher * np.log(np.where(teacher > 0, teacher, 1.0)), 0.0)))
    shift = Tensor((teacher == 0).astype(np.float64))
    cross = (Tensor(teacher) * (student + shift).log()).sum()
    return (Tensor(t_entropy) - cross) * (1.0 / teacher.shape[0])


def forward_reference(net, t, params, rulebook, activation=leaky_relu_reference):
    """`MiniSegNet.forward` over the composed layers: logits and embeddings.
    It walks `net.topology` through `layer_kernels`, taking `params` in
    order, and runs `activation(x, net.LEAK)` after every layer but the head."""
    live = iter(params)

    def layer(x, spec):
        for kernel in layer_kernels(spec):
            w, b = next(live), (next(live) if kernel.bias else None)
            if kernel.kind == "pointwise":
                x = apply_pointwise_reference(x, kernel, weights=w, bias=b)
            else:
                x = apply_spatial_reference(x, rulebook, kernel, weights=w, bias=b)
        return x

    x = Tensor(t.features)
    for spec in net.topology[:-1]:
        x = activation(layer(x, spec), net.LEAK)
    return layer(x, net.topology[-1]), x
