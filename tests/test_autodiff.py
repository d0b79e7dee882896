import numpy as np
import pytest

from conftest import finite_difference, max_rel_err
from lim3d import LifecycleError, ShapeError
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


class TestDtypes:
    def test_float32_and_float64_kept_anything_else_float64(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.ones(2, np.float16)).data.dtype == np.float64

    def test_python_scalar_never_promotes_float32(self):
        t = Tensor(np.array([0.5, -1.5, 2.0], np.float32), requires_grad=True)
        results = [t * 2.0, 2.0 * t, t + 1, 1 + t, -t, t - 1.0, 1.0 - t, t / 2.0, 2.0 / t,
                   t * np.float64(3.0), t ** 2.0, t.mean(), t.leaky_relu(0.1), t.exp(),
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
