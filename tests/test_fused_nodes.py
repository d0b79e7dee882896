"""Each fused node against its composed-graph oracle, bit for bit.

The fused layers and loss heads must give the same value and the same
gradient for every input as the composed graphs in `composed_reference`,
at float32 and float64. Bytes are compared, so even a flipped sign of zero
fails.
"""

from dataclasses import replace

import numpy as np
import pytest

from composed_reference import (apply_pointwise_reference, apply_spatial_reference,
                                forward_reference, kl_consistency_reference,
                                log_softmax_reference, lovasz_softmax_reference,
                                softmax_reference)
from conftest import random_sparse_tensor
from lim3d import (ConvSpec, CylGridSpec, MiniSegNet, Tensor, ToyPipelineConfig,
                   build_rulebook, glorot_weights, kl_consistency, log_softmax,
                   lovasz_softmax, prepare_frame, softmax, synth_sequence)
from lim3d import network
from lim3d.network import DEFAULT_WIDTHS
from lim3d.sparseconv import SPATIAL_BLOCK, apply_pointwise, apply_spatial, pointwise_forward
from lim3d.training import TOY_GRID

DTYPES = [np.float32, np.float64]


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def run_node(node, arrays, upstream=None):
    """Value and the gradient of every input of ``node(*tensors)`` under
    the upstream gradient `upstream` (ones for a scalar when None)."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = node(*tensors)
    out.backward(upstream)
    return [out.data] + [t.grad for t in tensors]


def assert_same_node(fused, composed, arrays, upstream=None):
    got = run_node(fused, arrays, upstream)
    want = run_node(composed, arrays, upstream)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_bitwise(a, b)


def sparse_frame(rng, n_sites):
    grid = CylGridSpec(16, 16, 4, 16.0, (0.0, 4.0))
    return random_sparse_tensor(rng, grid=grid, channels=1, max_active=n_sites)


class TestConvolutions:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind,bias", [("depthwise", False), ("depthwise", True),
                                           ("standard", False), ("standard", True)])
    @pytest.mark.parametrize("n_sites", [40, 3 * SPATIAL_BLOCK // 2])
    def test_spatial_matches_composed(self, rng, dtype, kind, bias, n_sites):
        t = sparse_frame(rng, n_sites)
        rb = build_rulebook(t.coords, t.grid, 3)
        m, n = 5, (5 if kind == "depthwise" else 3)
        kernel = ConvSpec(kind, m, n, 3, bias)
        w = glorot_weights(kernel, rng)
        x = rng.normal(size=(rb.n_sites, m)).astype(dtype)
        arrays = [x, w] + ([rng.normal(size=n)] if bias else [])
        upstream = rng.normal(size=(rb.n_sites, n)).astype(dtype)

        def node(apply):
            return lambda x, w, b=None: apply(x, rb, kernel, weights=w, bias=b)

        assert_same_node(node(apply_spatial), node(apply_spatial_reference), arrays, upstream)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_pointwise_matches_composed(self, rng, dtype, bias):
        kernel = ConvSpec("pointwise", 6, 4, 1, bias)
        w = glorot_weights(kernel, rng)
        x = rng.normal(size=(30, 6)).astype(dtype)
        arrays = [x, w] + ([rng.normal(size=4)] if bias else [])
        upstream = rng.normal(size=(30, 4)).astype(dtype)

        def node(apply):
            return lambda x, w, b=None: apply(x, kernel, weights=w, bias=b)

        assert_same_node(node(apply_pointwise), node(apply_pointwise_reference), arrays, upstream)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_pointwise_with_activation_matches_composed(self, rng, dtype, bias):
        """Against the mix, then a leaky ReLU node of its own: row 0 gives +0
        pre-activations, row 1 the smallest negative one, whose leak product
        underflows to -0, and the rest mixed signs; the input holds a -0."""
        kernel = ConvSpec("pointwise", 6, 4, 1, bias)
        w = glorot_weights(kernel, rng)
        w[0] = -1.0
        x = rng.normal(size=(30, 6)).astype(dtype)
        x[0] = 0.0
        x[1] = [np.finfo(dtype).smallest_subnormal, 0.0, -0.0, 0.0, 0.0, 0.0]
        b = rng.normal(size=4)
        b[:2] = 0.0
        arrays = [x, w] + ([b] if bias else [])
        upstream = rng.normal(size=(30, 4)).astype(dtype)

        pre = pointwise_forward(x, w, b if bias else None)
        out = pointwise_forward(x, w, b if bias else None, leak=0.1)
        assert ((pre == 0) & ~np.signbit(pre)).any() and (pre < 0).any()
        assert ((out == 0) & np.signbit(out)).any()

        def node(apply):
            return lambda x, w, b=None: apply(x, kernel, weights=w, bias=b, leak=0.1)

        assert_same_node(node(apply_pointwise), node(apply_pointwise_reference), arrays, upstream)

    def test_constant_weights_give_input_gradient_only(self, rng):
        t = sparse_frame(rng, 30)
        rb = build_rulebook(t.coords, t.grid, 3)
        kernel = ConvSpec("depthwise", 3, 3, 3, False)
        w = glorot_weights(kernel, rng)
        x = rng.normal(size=(rb.n_sites, 3))
        upstream = rng.normal(size=x.shape)
        assert_same_node(lambda x: apply_spatial(x, rb, kernel, w),
                         lambda x: apply_spatial_reference(x, rb, kernel, w), [x], upstream)


class TestSoftmax:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape,axis", [((20, 5), 1), ((20, 5), 0), ((7, 1), 1), ((9,), -1)])
    def test_log_softmax_matches_composed(self, rng, dtype, shape, axis):
        x = (3.0 * rng.normal(size=shape)).astype(dtype)
        upstream = rng.normal(size=shape)
        assert_same_node(lambda t: log_softmax(t, axis=axis),
                         lambda t: log_softmax_reference(t, axis=axis), [x], upstream)
        assert_same_node(lambda t: softmax(t, axis=axis),
                         lambda t: softmax_reference(t, axis=axis), [x], upstream)


def probability_rows(rng, n, c, dtype):
    p = softmax(Tensor(2.0 * rng.normal(size=(n, c))), axis=1).data
    return p.astype(dtype)


class TestLossHeads:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("upstream", [None, np.asarray(0.7)])
    def test_lovasz_matches_composed(self, rng, dtype, upstream):
        # Three classes, so fg - p takes both signs: the sign of the absolute
        # error would give the wrong gradient and fail here.
        probs = probability_rows(rng, 40, 4, dtype)
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        assert_same_node(lambda p: lovasz_softmax(p, labels),
                         lambda p: lovasz_softmax_reference(p, labels), [probs], upstream)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lovasz_with_tied_errors_matches_composed(self, dtype):
        probs = np.full((12, 3), 1.0 / 3.0, dtype=dtype)
        probs[4:8] = np.array([1.0, 0.0, 0.0], dtype=dtype)
        labels = np.array([0, 1, 2] * 4)
        assert_same_node(lambda p: lovasz_softmax(p, labels),
                         lambda p: lovasz_softmax_reference(p, labels), [probs])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("upstream", [None, np.asarray(0.7)])
    def test_kl_matches_composed_with_zero_teacher_mass(self, rng, dtype, upstream):
        student = probability_rows(rng, 30, 3, dtype)
        teacher = probability_rows(rng, 30, 3, np.float64)
        teacher[::4] = np.eye(3)[rng.integers(0, 3, size=len(teacher[::4]))]
        assert (teacher == 0).any()
        assert_same_node(lambda s: kl_consistency(s, teacher),
                         lambda s: kl_consistency_reference(s, teacher), [student], upstream)


def assert_network_matches_composed(dtype, widths, kernel_size):
    hp = ToyPipelineConfig()
    pc = synth_sequence(hp.scene, 1, seed=3)[0][0]
    frame = prepare_frame(pc, TOY_GRID, hp.reflec, kernel_size)
    svt = replace(frame.svt, features=frame.svt.features.astype(dtype))
    assert len(np.unique(svt.labels)) >= 2
    net = MiniSegNet(svt.channels, hp.scene.n_classes, widths, kernel_size, seed=0)
    teacher_probs, _ = MiniSegNet(svt.channels, hp.scene.n_classes, widths, kernel_size,
                                  seed=1).predict(svt, rulebook=frame.rulebook)

    def run(forward, smax, lovasz, kl):
        params = net.param_tensors()
        logits, emb = forward(params)
        probs = smax(logits, axis=1)
        (lovasz(probs, svt.labels) + kl(probs, teacher_probs)).backward()
        return [logits.data, emb.data] + [p.grad for p in params]

    got = run(lambda ps: net.forward(svt, params=ps, rulebook=frame.rulebook),
              softmax, lovasz_softmax, kl_consistency)
    want = run(lambda ps: forward_reference(net, svt, ps, frame.rulebook),
               softmax_reference, lovasz_softmax_reference, kl_consistency_reference)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_bitwise(a, b)


class TestNetwork:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_loss_gradients_match_composed(self, dtype):
        assert_network_matches_composed(dtype, DEFAULT_WIDTHS, 3)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel_size", [1, 5])
    @pytest.mark.parametrize("widths", [(), (5,), DEFAULT_WIDTHS])
    def test_other_shapes_match_composed(self, dtype, widths, kernel_size):
        assert_network_matches_composed(dtype, widths, kernel_size)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel_size", [1, 3])
    @pytest.mark.parametrize("widths", [(), (5,), DEFAULT_WIDTHS])
    def test_predict_logits_and_embeddings_equal_forward(self, monkeypatch, dtype, widths,
                                                         kernel_size):
        """`predict` runs the same fused kernel as `forward`'s nodes: the
        logits it takes the softmax of are `forward`'s, bit for bit."""
        hp = ToyPipelineConfig()
        pc = synth_sequence(hp.scene, 1, seed=3)[0][0]
        frame = prepare_frame(pc, TOY_GRID, hp.reflec, kernel_size)
        svt = replace(frame.svt, features=frame.svt.features.astype(dtype))
        net = MiniSegNet(svt.channels, hp.scene.n_classes, widths, kernel_size, seed=4)
        seen = []
        parts = network.log_softmax_parts
        monkeypatch.setattr(network, "log_softmax_parts",
                            lambda x, axis: seen.append(x) or parts(x, axis))
        _, emb = net.predict(svt, frame.rulebook)
        logits, embeddings = net.forward(svt, net.param_tensors(), frame.rulebook)
        assert len(seen) == 1
        assert_bitwise(seen[0], logits.data)
        assert_bitwise(emb, embeddings.data)
