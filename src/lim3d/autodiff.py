"""Reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps a float32 or float64 ndarray (anything else becomes
float64) and records the operation that produced it when some input
requires a gradient; a result of constants records nothing. Inference
(`MiniSegNet.predict`) builds no `Tensor` at all: it calls the plain-array
kernels that the layer nodes wrap. Calling `backward()` on a scalar
result walks the recorded graph once in reverse topological order and
accumulates gradients into every tensor created with `requires_grad=True`.
As soon as a node's own backward has run, it releases its gradient, its
parents and the inputs its backward saved, so the graph shrinks as the
pass goes and only those leaf tensors keep a `.grad`. A graph is therefore
single-use: running `backward()` through nodes that already participated
in a backward pass raises `LifecycleError`.

Dtypes follow the data. An op between tensors takes numpy's promotion
(float32 with float64 gives float64), but a Python number operand takes
the tensor's dtype, so ``t * 0.5`` or ``-t`` never promotes a float32 `t`.
`astype` casts inside the graph, and its backward casts the gradient back.
Every gradient is cast to its tensor's dtype before it is accumulated, so
float64 loss heads do not drag a float32 network's backward into float64.

Only the primitives the network and the loss heads need are provided.
Each network layer (`sparseconv`) and loss head (`losses`), and
`log_softmax`, is one node with its own backward, which repeats the numpy
operations of the primitive graph in the same order, so the values and
gradients are those of the composed graph bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import LifecycleError, ShapeError

__all__ = ["Tensor", "as_tensor", "log_softmax", "log_softmax_parts", "softmax"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # A constant result keeps no graph, so its inputs can be freed at once.
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._consumed = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def astype(self, dtype) -> "Tensor":
        """This tensor cast to `dtype`; itself when the dtype already matches.
        The gradient passes through, and `backward` casts it to this dtype."""
        if self.data.dtype == dtype:
            return self
        return Tensor(self.data.astype(dtype), _parents=(self,), _backward=lambda g: (g,))

    # -- arithmetic ----------------------------------------------------

    def _operand(self, other) -> "Tensor":
        """`other` as a tensor; a Python number takes this tensor's dtype."""
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return as_tensor(other)

    def __add__(self, other):
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._operand(other)
        out_data = self.data * other.data
        a, b = self.data, other.data

        def backward(g):
            return (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __truediv__(self, other):
        return self * self._operand(other) ** -1.0

    def __rtruediv__(self, other):
        return self._operand(other) * self ** -1.0

    def __pow__(self, exponent: float):
        p = float(exponent)
        out_data = self.data ** p

        def backward(g):
            return (g * p * self.data ** (p - 1.0),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def __matmul__(self, other):
        other = self._operand(other)
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(g):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            ga = np.outer(g, b) if b.ndim == 1 else g @ b.T
            gb = np.outer(a, g) if a.ndim == 1 else a.T @ g
            return (ga, gb)

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    # -- elementwise functions ------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def log(self):
        def backward(g):
            return (g / self.data,)

        return Tensor(np.log(self.data), _parents=(self,), _backward=backward)

    def abs(self):
        def backward(g):
            return (g * np.sign(self.data),)

        return Tensor(np.abs(self.data), _parents=(self,), _backward=backward)

    def leaky_relu(self, negative_slope: float = 0.1):
        slope = float(negative_slope)
        mask = self.data > 0

        def backward(g):
            return (np.where(mask, g, g * slope),)

        return Tensor(np.where(mask, self.data, slope * self.data), _parents=(self,), _backward=backward)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, shape).copy(),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- indexing and shaping ---------------------------------------------

    def reshape(self, shape):
        orig = self.data.shape

        def backward(g):
            return (g.reshape(orig),)

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=backward)

    def take(self, indices, axis: int = 0):
        """Gather along `axis` with an integer array; repeats allowed."""
        idx = np.asarray(indices, dtype=np.intp)
        out_data = np.take(self.data, idx, axis=axis)
        shape = self.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=g.dtype)
            key = tuple(idx if d == axis else slice(None) for d in range(len(shape)))
            np.add.at(full, key, g)
            return (full,)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    # -- backward pass -----------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into the `.grad` of every leaf created
        with `requires_grad=True`; `grad` is the upstream gradient, needed
        unless this tensor is a scalar. Each interior node releases its
        `.grad`, its parents and its saved inputs once its backward has run,
        so afterwards only those leaves hold gradients and the graph is spent.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(f"upstream gradient shape {grad.shape} != output shape {self.data.shape}")

        # Iterative topological sort over grad-requiring parents.
        topo: list[Tensor] = []
        state: dict[int, int] = {}  # 0 = entered, 1 = finished
        stack = [self]
        while stack:
            node = stack[-1]
            nid = id(node)
            if state.get(nid) is None:
                state[nid] = 0
                for p in node._parents:
                    if p.requires_grad and state.get(id(p)) is None:
                        stack.append(p)
            else:
                stack.pop()
                if state[nid] == 0:
                    state[nid] = 1
                    topo.append(node)

        if any(node._consumed for node in topo):
            raise LifecycleError("backward graph already consumed; rebuild the forward pass")

        self.grad = grad
        # Popping drops this pass's last reference to a node whose consumers
        # have all run, so only tensors the caller holds outlive their step.
        while topo:
            node = topo.pop()
            node._consumed = True
            if node._backward is not None and node.grad is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    if not parent.requires_grad or g is None:
                        continue
                    g = g.astype(parent.data.dtype, copy=False)
                    parent.grad = g if parent.grad is None else parent.grad + g
            if node._parents:
                node.grad, node._parents, node._backward = None, (), None


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def log_softmax_parts(x: np.ndarray, axis: int = -1):
    """Plain-array log-softmax in float64: the log-probabilities, the exp of
    the max-shifted input and its sums along `axis` (what the backward needs)."""
    x = x.astype(np.float64, copy=False)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    return shifted - np.log(s), e, s


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as one node; the max shift is detached
    (it has zero gradient).

    It computes in float64 whatever the input dtype: probabilities feed the
    loss heads and the pseudo-label entropy, and their rows sum to one
    within float64 rounding. The gradient is cast back to the input's dtype.
    """
    t = as_tensor(t)
    out, e, s = log_softmax_parts(t.data, axis)

    def backward(g):
        g_s = (_unbroadcast(g, s.shape) * -1.0) / s
        return (g + g_s * e,)

    return Tensor(out, _parents=(t,), _backward=backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(t, axis=axis).exp()
