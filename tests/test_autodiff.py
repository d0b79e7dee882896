import tracemalloc
import weakref

import numpy as np
import pytest

from composed_reference import forward_reference, leaky_relu_reference
from conftest import finite_difference, max_rel_err
from lim3d import (CylGridSpec, LifecycleError, MiniSegNet, ShapeError, SparseVoxelTensor,
                   build_rulebook, lovasz_softmax)
from lim3d.autodiff import Tensor, log_softmax, softmax


class TestPrimitives:
    def test_add_mul_broadcast(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))

        def f(av):
            t = Tensor(av, requires_grad=True)
            return t, ((t + Tensor(b)) * Tensor(b) * 2.0).sum()

        t, out = f(a)
        out.backward()
        assert max_rel_err(t.grad, finite_difference(lambda v: f(v)[1].item(), a)) < 1e-6

    def test_matmul_grads(self, rng):
        a = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 2))
        ta, tw = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        ((ta @ tw) ** 2.0).sum().backward()
        fd_a = finite_difference(lambda v: float(((v @ w) ** 2).sum()), a)
        fd_w = finite_difference(lambda v: float(((a @ v) ** 2).sum()), w)
        assert max_rel_err(ta.grad, fd_a) < 1e-6
        assert max_rel_err(tw.grad, fd_w) < 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [((3,), (3,)), ((2, 3), (3,)), ((3,), (3, 2)),
                                                  ((2, 2, 3), (3, 2))])
    def test_matmul_needs_two_matrices(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="two matrices"):
            Tensor(np.ones(a_shape), requires_grad=True) @ Tensor(np.ones(b_shape))

    def test_exp_log_abs_pow(self, rng):
        x = rng.uniform(0.5, 2.0, size=(6,))

        def f(v):
            t = Tensor(v, requires_grad=True)
            return t, (t.exp().log() * t.abs() ** 1.5).sum()

        t, out = f(x)
        out.backward()
        assert max_rel_err(t.grad, finite_difference(lambda v: f(v)[1].item(), x)) < 1e-5

    def test_take_repeated_indices(self, rng):
        x = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])

        def f(v):
            t = Tensor(v, requires_grad=True)
            gathered = t.take(idx)
            return t, (gathered * gathered * 2.0).sum()

        t, out = f(x)
        out.backward()
        assert max_rel_err(t.grad, finite_difference(lambda v: f(v)[1].item(), x)) < 1e-5

    def test_take_axis1(self, rng):
        x = rng.normal(size=(4, 5))
        t = Tensor(x, requires_grad=True)
        t.take([1], axis=1).reshape((4,)).sum().backward()
        expect = np.zeros_like(x)
        expect[:, 1] = 1.0
        np.testing.assert_allclose(t.grad, expect)

    def test_mean_axes(self, rng):
        x = rng.normal(size=(3, 4))
        t = Tensor(x, requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full_like(x, 1.0 / 12))

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(7, 4)) * 5
        s = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(log_softmax(Tensor(x), axis=1).data), s.data)

    def test_softmax_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4,))

        def f(v):
            t = Tensor(v, requires_grad=True)
            return t, (softmax(t, axis=1) * Tensor(w)).sum()

        t, out = f(x)
        out.backward()
        assert max_rel_err(t.grad, finite_difference(lambda v: f(v)[1].item(), x)) < 1e-5


class TestLifecycle:
    def test_double_backward_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = (t * 2.0).sum()
        out.backward()
        with pytest.raises(LifecycleError):
            out.backward()

    def test_reuse_of_consumed_subgraph_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        mid = t * 2.0
        mid.sum().backward()
        with pytest.raises(LifecycleError):
            (mid * 3.0).sum().backward()

    def test_nonscalar_backward_needs_gradient(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    @pytest.mark.parametrize("grad", [np.ones(2), np.ones((3, 1)), np.ones(())])
    def test_upstream_gradient_of_another_shape_raises(self, grad):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="upstream gradient shape"):
            (t * 2.0).backward(grad)

    def test_explicit_upstream_gradient(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = t * t
        out.backward(np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 12.0])

    def test_zero_upstream_gradient_gives_zero_param_gradient(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = t * 3.0
        out.backward(np.zeros(2))
        np.testing.assert_allclose(t.grad, 0.0)

    def test_shared_subexpression_accumulates(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        ((t * t) + t).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_constant_result_keeps_no_graph(self):
        a, b = Tensor(np.ones(3)), Tensor(np.arange(3.0))
        out = (a * b + a).exp().sum()
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


def held_arrays(root):
    """Every array the graph under `root` holds: each node's data, and each
    array a node's backward keeps in its closure."""
    seen, stack, arrays = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays.append(node.data)
        if node._backward is not None:
            arrays += [c.cell_contents for c in node._backward.__closure__ or ()
                       if isinstance(c.cell_contents, np.ndarray)]
        stack.extend(node._parents)
    return arrays


class TestRelease:
    """Each interior node frees its gradient and saved inputs once its own
    backward has run; only leaves created with ``requires_grad`` keep a grad."""

    def test_interior_gradients_released_leaf_gradient_kept(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = t * 3.0
        out = mid.exp().sum()
        out.backward()
        for node in (mid, out):
            assert node.grad is None
            assert node._parents == () and node._backward is None
        np.testing.assert_allclose(t.grad, 3.0 * np.exp(3.0 * t.data))

    def test_arrays_saved_in_closures_are_freed(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = log_softmax(leaky_relu_reference(x, 0.1), axis=1)
        saved = [weakref.ref(cell.cell_contents)
                 for node in (out, out._parents[0]) for cell in node._backward.__closure__
                 if isinstance(cell.cell_contents, np.ndarray)]
        assert len(saved) == 3  # log-softmax's exp and its sums, leaky ReLU's mask
        out.sum().backward()
        assert [ref() for ref in saved] == [None] * 3

    def test_held_memory_after_backward_is_leaf_gradients_and_caller_tensors(self, rng):
        grid = CylGridSpec(40, 40, 8, 40.0, (0.0, 8.0))
        n = 3000
        keys = np.sort(rng.choice(grid.n_cells, size=n, replace=False))
        coords = np.column_stack(np.unravel_index(keys, grid.shape))
        svt = SparseVoxelTensor(grid=grid, coords=coords,
                                features=rng.normal(size=(n, 8)).astype(np.float32))
        rb = build_rulebook(svt.coords, grid, 3)
        labels = rng.integers(0, 5, size=n)
        net = MiniSegNet(8, 5, seed=0)
        params = net.param_tensors()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits, emb = net.forward(svt, params=params, rulebook=rb)
            probs = softmax(logits, axis=1)
            loss = lovasz_softmax(probs, labels)
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        live = sum(t.data.nbytes for t in (logits, emb, probs, loss))
        live += sum(p.grad.nbytes for p in params)
        # 64 kB covers the Python objects; the graph itself is about 7 MB.
        assert held <= live + 64_000, f"{(held - live) / 1e6:.2f} MB beyond the live arrays"

    def test_graph_holds_no_pre_activation_or_mask(self, rng):
        """The leaky ReLU runs inside the pointwise node, which reads the
        slope off its output's sign: at the start of backward the graph
        holds no pre-activation and no mask, where the composed graph holds
        both."""
        grid = CylGridSpec(12, 16, 6, 12.0, (0.0, 6.0))
        keys = np.sort(rng.choice(grid.n_cells, size=400, replace=False))
        coords = np.column_stack(np.unravel_index(keys, grid.shape))
        svt = SparseVoxelTensor(grid=grid, coords=coords,
                                features=rng.normal(size=(400, 4)).astype(np.float32))
        rb = build_rulebook(svt.coords, grid, 3)
        labels = rng.integers(0, 3, size=400)
        net = MiniSegNet(4, 3, widths=(8, 8, 6), seed=0)
        pre_activations = []

        def reference_node(t, negative_slope):
            pre_activations.append(t.data)
            return leaky_relu_reference(t, negative_slope)

        def graph(forward):
            logits, _ = forward(net.param_tensors())
            return lovasz_softmax(softmax(logits, axis=1), labels)

        def holds(arrays, a):
            return any(h.shape == a.shape and h.tobytes() == a.tobytes() for h in arrays)

        composed = held_arrays(graph(
            lambda ps: forward_reference(net, svt, ps, rb, reference_node)))
        fused = held_arrays(graph(lambda ps: net.forward(svt, ps, rb)))
        assert len(pre_activations) == 3 and all((a < 0).any() for a in pre_activations)
        assert all(holds(composed, a) for a in pre_activations)
        assert any(a.dtype == bool for a in composed)
        assert not any(holds(fused, a) for a in pre_activations)
        assert not any(a.dtype == bool for a in fused)


class TestDtypes:
    def test_float32_and_float64_kept_anything_else_float64(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.ones(2, np.float16)).data.dtype == np.float64

    def test_python_scalar_never_promotes_float32(self):
        t = Tensor(np.array([0.5, -1.5, 2.0], np.float32), requires_grad=True)
        results = [t * 2.0, 2.0 * t, t + 1, 1 + t, -t, t - 1.0, 1.0 - t, t / 2.0, 2.0 / t,
                   t * np.float64(3.0), t ** 2.0, t.mean(), leaky_relu_reference(t, 0.1), t.exp(),
                   t.abs().log(), t.take([2, 0])]
        assert [r.data.dtype for r in results] == [np.float32] * len(results)
        total = results[0].sum()
        for r in results[1:]:
            total = total + r.sum()
        assert total.data.dtype == np.float32
        total.backward()
        assert t.grad.dtype == np.float32

    def test_float32_with_float64_tensor_gives_float64(self):
        a = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        for out in (a * b, b * a, a + b, a - b, a / b):
            assert out.data.dtype == np.float64
        (a * b).sum().backward()
        # Each gradient is cast to its own tensor's dtype.
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        np.testing.assert_array_equal(a.grad, 2.0)

    def test_astype_backward_returns_the_source_dtype(self):
        w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        assert w.astype(np.float64) is w
        w32 = w.astype(np.float32)
        assert w32.data.dtype == np.float32 and w32.requires_grad
        (w32 * np.float32(2.0)).sum().backward()
        assert w.grad.dtype == np.float64
        np.testing.assert_array_equal(w.grad, 2.0)

    def test_softmax_computes_in_float64(self, rng):
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        s = softmax(x, axis=1)
        assert s.data.dtype == np.float64
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
        (s * Tensor(rng.normal(size=(5, 3)))).sum().backward()
        assert x.grad.dtype == np.float32
