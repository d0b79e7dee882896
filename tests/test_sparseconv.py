import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (conv_tensor, draw_conv, finite_difference, identity_weights, max_rel_err,
                      peak_bytes, random_sparse_tensor)
from dense_reference import (dense_pointwise_reference, dense_separable_reference,
                             dense_spatial_reference, densify)
from lim3d import (ConvSpec, CylGridSpec, DomainError, LayerSpec, MiniSegNet, SceneSpec,
                   ShapeError, SparseVoxelTensor, ValidationError, apply_pointwise, apply_spatial,
                   build_rulebook, conv_cost, glorot_weights, pointwise_forward,
                   spatial_forward, synth_sequence, topology_cost, voxelize)
from lim3d.autodiff import Tensor
from lim3d.sparseconv import SPATIAL_BLOCK


def active_mask(t):
    mask = np.zeros(t.grid.shape, dtype=bool)
    mask[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = True
    return mask


def masked_rows(dense_out, t):
    return dense_out[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]]


class TestKernelValidation:
    def test_depthwise_needs_matching_channels(self):
        with pytest.raises(ShapeError):
            ConvSpec("depthwise", 2, 3, 3, False).weight_shape

    def test_pointwise_needs_size_one(self):
        with pytest.raises(DomainError):
            ConvSpec("pointwise", 2, 2, 3, False).weight_shape

    def test_even_kernel_rejected(self):
        with pytest.raises(DomainError):
            ConvSpec("standard", 1, 1, 2, False).weight_shape

    def test_unknown_kind_rejected_by_the_layout_table(self, rng):
        with pytest.raises(DomainError):
            ConvSpec("dense", 2, 2, 3, False).weight_shape
        with pytest.raises(DomainError):
            conv_cost(ConvSpec("dense", 2, 2, 3, False), 10)
        with pytest.raises(DomainError):
            glorot_weights(ConvSpec("dense", 2, 2, 3, False), rng)
        # Channel counts and kernel sizes are integers >= 1; numpy integers pass.
        for kind, m, n, d in [("pointwise", 3, 0, 1), ("depthwise", 3, 3, 2.5),
                              ("depthwise", 0, 0, 3), ("standard", 3.0, 3, 3),
                              ("pointwise", 3, 3, True), ("standard", -1, 3, 3)]:
            with pytest.raises(DomainError):
                ConvSpec(kind, m, n, d, False).weight_shape
            with pytest.raises(DomainError):
                glorot_weights(ConvSpec(kind, m, n, d, False), rng)
        spec = ConvSpec("standard", np.int64(2), np.int32(3), np.uint8(3), False)
        assert spec.weight_shape == (3, 3, 3, 2, 3)

    @pytest.mark.parametrize("kernel_size", [4, 2, 0, -1, 2.0, 3.0, True, None])
    def test_rulebook_needs_an_odd_integer_kernel_size(self, kernel_size):
        grid = CylGridSpec(3, 4, 3, rho_max=3.0, z_range=(0.0, 3.0))
        with pytest.raises(DomainError, match="kernel_size"):
            build_rulebook(np.array([[0, 0, 0], [1, 2, 1]]), grid, kernel_size)
        assert build_rulebook(np.array([[0, 0, 0]]), grid, np.int64(1)).neighbors.shape == (1, 1)

    @pytest.mark.parametrize("coords,match", [
        ([[1, 1, 1], [1, 1, 1], [1, 1, 2]], "duplicate"),
        ([[0, 0, 0], [1, 1, 1], [0, 0, 0]], "duplicate"),
        ([[4, 1, 1]], "grid"), ([[-1, 0, 0]], "grid"), ([[1, 4, 1]], "grid"),
        ([[1, 1, -1]], "grid"), ([[0, 0, 0], [1, 1, 4]], "grid"),
    ])
    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_rulebook_refuses_bad_coordinates(self, coords, match, kernel_size):
        grid = CylGridSpec(4, 4, 4, rho_max=4.0, z_range=(0.0, 4.0))
        with pytest.raises(ValidationError, match=match):
            build_rulebook(np.array(coords), grid, kernel_size)

    @pytest.mark.parametrize("kind,m,n,d,fan_in,fan_out", [
        ("standard", 2, 5, 3, 2 * 27, 5 * 27), ("depthwise", 4, 4, 5, 125, 125),
        ("pointwise", 2, 5, 1, 2, 5)])
    def test_glorot_limit_from_the_fans(self, kind, m, n, d, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = glorot_weights(ConvSpec(kind, m, n, d, False), np.random.default_rng(1))
        want = np.random.default_rng(1).uniform(-limit, limit, w.shape)
        assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["standard", "depthwise", "pointwise"])
    def test_live_weights_bring_their_own_bias(self, rng, kind):
        """A node's weights and bias are exactly its arguments, whatever the
        `ConvSpec`'s bias flag says; weights are required."""
        t = random_sparse_tensor(rng, channels=3)
        rb = build_rulebook(t.coords, t.grid, 3)
        n, d = (3 if kind == "depthwise" else 4), (1 if kind == "pointwise" else 3)
        w, b = rng.normal(size=ConvSpec(kind, 3, n, d, True).weight_shape), rng.normal(size=n)

        def node(kernel, *live, **kw):
            if kind == "pointwise":
                return apply_pointwise(t.features, kernel, *live, **kw).data.tobytes()
            return apply_spatial(t.features, rb, kernel, *live, **kw).data.tobytes()

        def plain(weights, bias):
            if kind == "pointwise":
                return pointwise_forward(t.features, weights, bias).tobytes()
            return spatial_forward(t.features, rb.neighbors, weights, bias).tobytes()

        for kernel in (ConvSpec(kind, 3, n, d, True), ConvSpec(kind, 3, n, d, False)):
            assert node(kernel, weights=Tensor(w), bias=Tensor(b)) == plain(w, b)
            assert node(kernel, w, b) == plain(w, b)
            assert node(kernel, weights=Tensor(w)) == plain(w, None)
        with pytest.raises(TypeError, match="weights"):
            node(ConvSpec(kind, 3, n, d, True))

    @pytest.mark.parametrize("kind", ["standard", "depthwise", "pointwise"])
    @pytest.mark.parametrize("bad", ["weights", "bias"])
    def test_weights_or_bias_of_another_shape_raise(self, rng, kind, bad):
        """Weights not of `kernel.weight_shape`, or a bias not of
        ``(out_channels,)``, raise instead of running another convolution: a
        standard layout under a depthwise spec, an extra output channel, a
        bias that would broadcast."""
        t = random_sparse_tensor(rng, channels=3)
        rb = build_rulebook(t.coords, t.grid, 3)
        spec = ConvSpec(kind, 3, 3 if kind == "depthwise" else 4, 1 if kind == "pointwise" else 3,
                        True)
        w, b = np.zeros(spec.weight_shape), np.zeros(spec.out_channels)
        if bad == "weights":
            w, b = np.zeros((3, 3, 3, 3, 3) if kind == "depthwise"
                            else spec.weight_shape[:-1] + (5,)), None
        else:
            b = np.zeros(1)
        with pytest.raises(ShapeError, match=f"{bad} must have shape"):
            if kind == "pointwise":
                apply_pointwise(t.features, spec, w, b)
            else:
                apply_spatial(t.features, rb, spec, w, b)

    def test_each_node_refuses_the_other_kind(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        rb = build_rulebook(t.coords, t.grid, 1)
        with pytest.raises(DomainError, match="standard or depthwise"):
            apply_spatial(t.features, rb, *identity_weights("pointwise", 3))
        with pytest.raises(DomainError, match="pointwise kernel"):
            apply_pointwise(t.features, *identity_weights("depthwise", 3, kernel_size=1))

    def test_channel_mismatch_raises(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        with pytest.raises(ShapeError):
            conv_tensor(t, *identity_weights("standard", 5))
        with pytest.raises(ShapeError):
            conv_tensor(t, *identity_weights("pointwise", 5))


class TestIdentityAndZero:
    def test_identity_standard(self, rng):
        t = random_sparse_tensor(rng, channels=4)
        out = conv_tensor(t, *identity_weights("standard", 4))
        np.testing.assert_allclose(out.features, t.features)
        np.testing.assert_array_equal(out.coords, t.coords)

    def test_identity_depthwise(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = conv_tensor(t, *identity_weights("depthwise", 3))
        np.testing.assert_allclose(out.features, t.features)

    def test_identity_pointwise(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = conv_tensor(t, *identity_weights("pointwise", 3))
        np.testing.assert_allclose(out.features, t.features)

    def test_zero_weights_zero_output_same_sites(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        out = conv_tensor(t, ConvSpec("standard", 2, 2, 3, False), np.zeros((3, 3, 3, 2, 2)))
        np.testing.assert_array_equal(out.coords, t.coords)
        np.testing.assert_array_equal(out.features, 0.0)

    def test_separable_identity_composition(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = conv_tensor(conv_tensor(t, *identity_weights("depthwise", 3)),
                          *identity_weights("pointwise", 3))
        np.testing.assert_allclose(out.features, t.features)


class TestHandExamples:
    def test_pointwise_channel_mix(self):
        grid = CylGridSpec(2, 2, 2, 2.0, (0.0, 2.0))
        t = SparseVoxelTensor(grid=grid, coords=[[0, 0, 0]], features=[[1.0, 2.0]])
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(conv_tensor(t, ConvSpec("pointwise", 2, 2, 1, False), w).features,
                                   [[1.0, 3.0]])

    def test_empty_tensor_passthrough(self):
        grid = CylGridSpec(2, 2, 2, 2.0, (0.0, 2.0))
        t = SparseVoxelTensor(grid=grid, coords=np.empty((0, 3), dtype=np.int64),
                              features=np.empty((0, 2)))
        assert conv_tensor(t, *identity_weights("pointwise", 2)).n_active == 0
        assert conv_tensor(t, *identity_weights("standard", 2)).n_active == 0


class TestDenseOracle:
    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_spatial_matches_dense(self, rng, kind):
        for _ in range(12):
            channels = int(rng.integers(1, 5))
            t = random_sparse_tensor(rng, channels=channels, max_dim=6)
            out_ch = channels if kind == "depthwise" else int(rng.integers(1, 5))
            spec, w, b = draw_conv(rng, kind, channels, out_ch, 3, bias=bool(rng.integers(2)))
            out = conv_tensor(t, spec, w, b)
            ref = dense_spatial_reference(densify(t), active_mask(t), w, kind, bias=b)
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5
            np.testing.assert_array_equal(out.coords, t.coords)

    def test_pointwise_matches_dense(self, rng):
        for _ in range(12):
            channels = int(rng.integers(1, 6))
            t = random_sparse_tensor(rng, channels=channels, max_dim=6)
            spec, w, b = draw_conv(rng, "pointwise", channels, int(rng.integers(1, 6)), 1,
                                   bias=True)
            out = conv_tensor(t, spec, w, b)
            ref = dense_pointwise_reference(densify(t), active_mask(t), w, b)
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    def test_separable_matches_dense_fully_active(self, rng):
        grid = CylGridSpec(3, 4, 3, 3.0, (0.0, 3.0))
        keys = np.arange(grid.n_cells)
        coords = np.column_stack([keys // (grid.n_phi * grid.n_z),
                                  (keys // grid.n_z) % grid.n_phi,
                                  keys % grid.n_z])
        t = SparseVoxelTensor(grid=grid, coords=coords,
                              features=rng.normal(size=(grid.n_cells, 3)))
        dw, dw_w, _ = draw_conv(rng, "depthwise", 3, 3, 3)
        pw, pw_w, pw_b = draw_conv(rng, "pointwise", 3, 5, 1, bias=True)
        out = conv_tensor(conv_tensor(t, dw, dw_w), pw, pw_w, pw_b)
        ref = dense_separable_reference(densify(t), active_mask(t), dw_w, pw_w, pw_bias=pw_b)
        assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    def test_separable_equals_explicit_composition(self, rng):
        """The two nodes chained in one graph equal the two plain-array kernels."""
        t = random_sparse_tensor(rng, channels=4)
        dw, dw_w, _ = draw_conv(rng, "depthwise", 4, 4, 3)
        pw, pw_w, pw_b = draw_conv(rng, "pointwise", 4, 6, 1, bias=True)
        rb = build_rulebook(t.coords, t.grid, 3)
        fused = apply_pointwise(apply_spatial(t.features, rb, dw, dw_w), pw, pw_w, pw_b)
        two_step = pointwise_forward(spatial_forward(t.features, rb.neighbors, dw_w), pw_w, pw_b)
        np.testing.assert_array_equal(fused.data, two_step)


class TestInvariants:
    def test_submanifold_set_equality_batch(self, rng):
        for _ in range(50):
            t = random_sparse_tensor(rng)
            kind = ("standard", "depthwise")[int(rng.integers(2))]
            out_ch = t.channels if kind == "depthwise" else int(rng.integers(1, 9))
            spec, w, _ = draw_conv(rng, kind, t.channels, out_ch, 3)
            np.testing.assert_array_equal(conv_tensor(t, spec, w).coords, t.coords)

    def test_linearity_bias_free(self, rng):
        t1 = random_sparse_tensor(rng, channels=3)
        t2 = replace(t1, features=rng.normal(size=t1.features.shape))
        spec, w, _ = draw_conv(rng, "standard", 3, 4, 3)
        a, b = 0.7, -1.3
        combo = conv_tensor(replace(t1, features=a * t1.features + b * t2.features), spec, w)
        split = a * conv_tensor(t1, spec, w).features + b * conv_tensor(t2, spec, w).features
        np.testing.assert_allclose(combo.features, split, atol=1e-6)

    def test_parameter_count_identity(self):
        for m, n, d in [(16, 16, 3), (16, 32, 3), (32, 64, 3), (64, 64, 3), (8, 24, 5)]:
            (row,), _ = topology_cost((LayerSpec("separable", m, n, d, bias=False),), 0)
            sep, full = row["trainable_params"], row["standard_params"]
            assert sep == m * d ** 3 + m * n
            assert full == m * n * d ** 3
            assert sep < full  # n > d^3/(d^3-1) holds for all configured layers


def layer_cost(kind, m, n, d, active_sites, neighbor_pairs=None):
    return topology_cost((LayerSpec(kind, m, n, d, bias=False),), active_sites, neighbor_pairs)[1]


class TestCost:
    def test_closed_form_params(self):
        std = layer_cost("standard", 64, 64, 3, 100).trainable_params
        sep = layer_cost("separable", 64, 64, 3, 100).trainable_params
        assert std == 110592
        assert sep == 5824
        assert round(std / sep, 1) == 19.0

    def test_zero_active_sites_zero_multadds(self):
        assert conv_cost(ConvSpec("standard", 4, 4, 3, False), 0).mult_adds == 0
        assert layer_cost("separable", 4, 8, 3, 0).mult_adds == 0

    def test_multadds_proportional_to_pairs(self):
        standard, depthwise = ConvSpec("standard", 3, 5, 3, False), ConvSpec("depthwise", 3, 3, 3, False)
        assert conv_cost(standard, 10, neighbor_pairs=40).mult_adds == 40 * 3 * 5
        assert conv_cost(depthwise, 10, neighbor_pairs=40).mult_adds == 40 * 3
        assert conv_cost(ConvSpec("pointwise", 3, 5, 1, False), 10).mult_adds == 10 * 3 * 5
        # A separable layer: the depthwise pass over every pair, one mix per site.
        assert layer_cost("separable", 3, 5, 3, 10, 40).mult_adds == 40 * 3 + 10 * 3 * 5

    def test_bias_counts(self):
        assert conv_cost(ConvSpec("pointwise", 4, 6, 1, True), 0).trainable_params == 4 * 6 + 6


class TestGradients:
    def test_conv_gradients_fd(self, rng):
        """Weights, bias and input gradients for each conv kind."""
        for kind in ("standard", "depthwise", "pointwise"):
            for _ in range(6):
                channels = int(rng.integers(1, 4))
                t = random_sparse_tensor(rng, channels=channels, max_dim=4, max_active=10)
                out_ch = channels if kind == "depthwise" else int(rng.integers(1, 4))
                k, k_w, k_b = draw_conv(rng, kind, channels, out_ch,
                                        1 if kind == "pointwise" else 3, bias=True)
                rb = None if kind == "pointwise" else build_rulebook(t.coords, t.grid, 3)
                downstream = rng.normal(size=(t.n_active, out_ch))

                def run(w_arr, x_arr, b_arr):
                    w = Tensor(w_arr, requires_grad=True)
                    x = Tensor(x_arr, requires_grad=True)
                    b = Tensor(b_arr, requires_grad=True)
                    if kind == "pointwise":
                        out = apply_pointwise(x, k, weights=w, bias=b)
                    else:
                        out = apply_spatial(x, rb, k, weights=w, bias=b)
                    return w, x, b, (out * Tensor(downstream)).sum()

                w, x, b, loss = run(k_w, t.features, k_b)
                loss.backward()
                fd_w = finite_difference(
                    lambda v: run(v, t.features, k_b)[3].item(), k_w)
                fd_x = finite_difference(
                    lambda v: run(k_w, v, k_b)[3].item(), t.features)
                fd_b = finite_difference(
                    lambda v: run(k_w, t.features, v)[3].item(), k_b)
                assert max_rel_err(w.grad, fd_w) < 1e-3
                assert max_rel_err(x.grad, fd_x) < 1e-3
                assert max_rel_err(b.grad, fd_b) < 1e-3

    def test_identity_sum_gives_unit_input_gradient(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        rb = build_rulebook(t.coords, t.grid, 3)
        k, k_w = identity_weights("standard", 2)
        x = Tensor(t.features, requires_grad=True)
        apply_spatial(x, rb, k, k_w).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_zero_upstream_gradient(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        rb = build_rulebook(t.coords, t.grid, 3)
        k, k_w, _ = draw_conv(rng, "standard", 2, 3, 3)
        w = Tensor(k_w, requires_grad=True)
        out = apply_spatial(Tensor(t.features), rb, k, weights=w)
        out.backward(np.zeros(out.shape))
        np.testing.assert_array_equal(w.grad, 0.0)


def wrap_grid_tensor(seed, kernel_size, n_phi, channels):
    """Random tensor on a small grid `n_phi` bins around; with `n_phi` below
    the kernel size, several taps of one site wrap onto the same neighbor."""
    rng = np.random.default_rng(seed)
    grid = CylGridSpec(int(rng.integers(1, 5)), n_phi, int(rng.integers(1, 5)),
                       rho_max=4.0, z_range=(0.0, 4.0))
    return random_sparse_tensor(rng, grid=grid, channels=channels), rng


class TestNeighborTable:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["standard", "depthwise"]),
           kernel_size=st.sampled_from([1, 3, 5]), data=st.data())
    def test_spatial_matches_dense_with_wrapped_taps(self, seed, kind, kernel_size, data):
        n_phi = data.draw(st.integers(1, kernel_size))
        channels = data.draw(st.integers(1, 3))
        t, rng = wrap_grid_tensor(seed, kernel_size, n_phi, channels)
        out_ch = channels if kind == "depthwise" else data.draw(st.integers(1, 3))
        k, k_w, k_b = draw_conv(rng, kind, channels, out_ch, kernel_size,
                                bias=data.draw(st.booleans()))
        out = conv_tensor(t, k, k_w, k_b)
        ref = dense_spatial_reference(densify(t), active_mask(t), k_w, kind, bias=k_b)
        assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kernel_size=st.sampled_from([1, 3, 5]),
           data=st.data())
    def test_mirror_property_and_brute_force_pairs(self, seed, kernel_size, data):
        n_phi = data.draw(st.integers(1, kernel_size + 2))
        t, _ = wrap_grid_tensor(seed, kernel_size, n_phi, 1)
        rb = build_rulebook(t.coords, t.grid, kernel_size)
        nb, n, k3 = rb.neighbors, t.n_active, kernel_size ** 3
        assert nb.shape == (n, k3) and rb.n_sites == n

        # nb[o, k] == i implies nb[i, K-1-k] == o; over every (o, k) this
        # also covers the converse, which is the same rule at tap K-1-k.
        sites, taps = np.nonzero(nb < n)
        np.testing.assert_array_equal(nb[nb[sites, taps], k3 - 1 - taps], sites)

        row_of = {tuple(c): i for i, c in enumerate(t.coords.tolist())}
        r = (kernel_size - 1) // 2
        pairs = 0
        for o, (a, b, c) in enumerate(t.coords.tolist()):
            for tap, (da, db, dc) in enumerate(product(range(-r, r + 1), repeat=3)):
                i = row_of.get((a + da, (b + db) % n_phi, c + dc), n)
                assert nb[o, tap] == i
                pairs += i < n
        assert rb.n_pairs == pairs

    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_kernel5_gradients_fd_on_two_phi_bins(self, rng, kind):
        grid = CylGridSpec(3, 2, 3, rho_max=3.0, z_range=(0.0, 3.0))
        keys = np.sort(rng.choice(grid.n_cells, size=10, replace=False))
        t = SparseVoxelTensor(grid=grid, coords=np.column_stack(np.unravel_index(keys, grid.shape)),
                              features=rng.normal(size=(10, 2)))
        out_ch = 2 if kind == "depthwise" else 3
        k, k_w, k_b = draw_conv(rng, kind, 2, out_ch, 5, bias=True)
        rb = build_rulebook(t.coords, t.grid, 5)
        downstream = rng.normal(size=(t.n_active, out_ch))

        def run(w_arr, x_arr, b_arr):
            w = Tensor(w_arr, requires_grad=True)
            x = Tensor(x_arr, requires_grad=True)
            b = Tensor(b_arr, requires_grad=True)
            out = apply_spatial(x, rb, k, weights=w, bias=b)
            return w, x, b, (out * Tensor(downstream)).sum()

        w, x, b, loss = run(k_w, t.features, k_b)
        loss.backward()
        fd_w = finite_difference(lambda v: run(v, t.features, k_b)[3].item(), k_w)
        fd_x = finite_difference(lambda v: run(k_w, v, k_b)[3].item(), t.features)
        fd_b = finite_difference(lambda v: run(k_w, t.features, v)[3].item(), k_b)
        assert max_rel_err(w.grad, fd_w) < 1e-3
        assert max_rel_err(x.grad, fd_x) < 1e-3
        assert max_rel_err(b.grad, fd_b) < 1e-3


def rulebook_by_dense_table(coords, grid, kernel_size):
    """Whole-frame neighbor table read from a dense grid of row ids: the
    (n, K, 3) neighbor cells of every site at once, the azimuth wrapped and
    cells past the radius or height edges left at the sentinel."""
    n = len(coords)
    rows = np.full(grid.shape, n, dtype=np.intp)
    rows[tuple(coords.T)] = np.arange(n)
    r = (kernel_size - 1) // 2
    cells = coords[:, None, :] + np.array(list(product(range(-r, r + 1), repeat=3)))
    rho, phi, z = cells[..., 0], cells[..., 1] % grid.n_phi, cells[..., 2]
    valid = (rho >= 0) & (rho < grid.n_rho) & (z >= 0) & (z < grid.n_z)
    out = np.full(cells.shape[:2], n, dtype=np.intp)
    out[valid] = rows[rho[valid], phi[valid], z[valid]]
    return out


def frame_of(rng, n_sites, channels, grid=CylGridSpec(12, 16, 8, 12.0, (0.0, 8.0))):
    """Exactly `n_sites` random active sites on `grid`."""
    keys = np.sort(rng.choice(grid.n_cells, size=n_sites, replace=False))
    coords = np.column_stack(np.unravel_index(keys, grid.shape)).reshape(-1, 3)
    return SparseVoxelTensor(grid=grid, coords=coords,
                             features=rng.normal(size=(n_sites, channels)))


def _foreign_table(t, case):
    """A rulebook that does not fit `t`: built over fewer sites, over more
    sites (`t`'s plus cells it leaves inactive) or for a 5-wide kernel."""
    if case == "fewer_sites":
        return build_rulebook(t.coords[:-11], t.grid, 3)
    if case == "more_sites":
        free = np.setdiff1d(np.arange(t.grid.n_cells), t.grid.cell_key(*t.coords.T))[:11]
        extra = np.column_stack(np.unravel_index(free, t.grid.shape))
        return build_rulebook(np.concatenate([t.coords, extra]), t.grid, 3)
    return build_rulebook(t.coords, t.grid, 5)


class TestRulebookFitsItsTensor:
    """A table of another frame or kernel size raises `ShapeError` wherever
    it is passed, not a short output or an index or broadcast error."""

    @pytest.fixture
    def frame(self):
        pc, _ = synth_sequence(SceneSpec(n_points=150), 1, seed=0)[0]
        return voxelize(pc, CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0)))

    @pytest.mark.parametrize("case", ["fewer_sites", "more_sites", "kernel_5"])
    @pytest.mark.parametrize("entry", ["predict", "forward", "apply_spatial", "spatial_forward"])
    def test_foreign_table_raises_shape_error(self, frame, rng, case, entry):
        rb = _foreign_table(frame, case)
        assert (rb.n_sites != frame.n_active) == (case != "kernel_5")
        net = MiniSegNet(4, 3, widths=(8,), seed=0)
        k, w, _ = draw_conv(rng, "depthwise", 4, 4, 3)
        run = {"predict": lambda: net.predict(frame, rb),
               "forward": lambda: net.forward(frame, net.param_tensors(), rb),
               "apply_spatial": lambda: apply_spatial(frame.features, rb, k, w),
               "spatial_forward": lambda: spatial_forward(frame.features, rb.neighbors, w)}
        with pytest.raises(ShapeError, match="does not fit"):
            run[entry]()


# Empty, exactly one block, one block and one row, and a ragged third block.
BLOCK_SIZES = [0, SPATIAL_BLOCK, SPATIAL_BLOCK + 1, 5 * SPATIAL_BLOCK // 2]


class TestBlocks:
    """Frames sized from `SPATIAL_BLOCK`, so the block loop runs 0 to 3 times."""

    @pytest.mark.parametrize("n_sites", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_spatial_matches_dense(self, n_sites, kind):
        rng = np.random.default_rng(n_sites)
        t = frame_of(rng, n_sites, 3)
        k, k_w, k_b = draw_conv(rng, kind, 3, 3 if kind == "depthwise" else 2, 3, bias=True)
        out = conv_tensor(t, k, k_w, k_b)
        ref = dense_spatial_reference(densify(t), active_mask(t), k_w, kind, bias=k_b)
        assert out.features.shape == (n_sites, k.out_channels)
        if n_sites:
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    @pytest.mark.parametrize("n_sites", BLOCK_SIZES)
    def test_depthwise_forward_equals_one_shot_gather(self, n_sites):
        rng = np.random.default_rng(n_sites + 1)
        t = frame_of(rng, n_sites, 4)
        k, k_w, _ = draw_conv(rng, "depthwise", 4, 4, 3)
        rb = build_rulebook(t.coords, t.grid, 3)
        padded = np.concatenate([t.features, np.zeros((1, 4))])
        one_shot = np.einsum("nkc,kc->nc", padded[rb.neighbors], k_w.reshape(27, 4))
        np.testing.assert_array_equal(apply_spatial(t.features, rb, k, k_w).data, one_shot)

    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_gradients_fd_across_blocks(self, kind):
        rng = np.random.default_rng(5)
        t = frame_of(rng, BLOCK_SIZES[-1], 2)
        k, k_w, k_b = draw_conv(rng, kind, 2, 2 if kind == "depthwise" else 3, 3, bias=True)
        rb = build_rulebook(t.coords, t.grid, 3)
        downstream = rng.normal(size=(t.n_active, k.out_channels))

        def run(w_arr, x_arr, b_arr):
            w = Tensor(w_arr, requires_grad=True)
            x = Tensor(x_arr, requires_grad=True)
            b = Tensor(b_arr, requires_grad=True)
            out = apply_spatial(x, rb, k, weights=w, bias=b)
            return w, x, b, (out * Tensor(downstream)).sum()

        w, x, b, loss = run(k_w, t.features, k_b)
        loss.backward()
        fd_w = finite_difference(lambda v: run(v, t.features, k_b)[3].item(), k_w)
        fd_x = finite_difference(lambda v: run(k_w, v, k_b)[3].item(), t.features)
        fd_b = finite_difference(lambda v: run(k_w, t.features, v)[3].item(), k_b)
        assert max_rel_err(w.grad, fd_w) < 1e-3
        assert max_rel_err(x.grad, fd_x) < 1e-3
        assert max_rel_err(b.grad, fd_b) < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kernel_size=st.sampled_from([1, 3, 5]),
           n_sites=st.sampled_from(BLOCK_SIZES + [1, SPATIAL_BLOCK - 1, 2 * SPATIAL_BLOCK])
           | st.integers(0, 3 * SPATIAL_BLOCK),
           shuffled=st.booleans(), data=st.data())
    def test_rulebook_matches_whole_frame_table(self, seed, kernel_size, n_sites, shuffled, data):
        # Few radius and height bins put most sites on an edge; the azimuth
        # count just holds the sites, so many sites sit at its wrap.
        n_rho, n_z = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        n_phi = max(1, -(-n_sites // (n_rho * n_z))) + data.draw(st.integers(0, 3))
        grid = CylGridSpec(n_rho, n_phi, n_z, rho_max=float(n_rho), z_range=(0.0, float(n_z)))
        keys = np.random.default_rng(seed).choice(grid.n_cells, size=n_sites, replace=False)
        if not shuffled:
            keys.sort()
        coords = np.column_stack(np.unravel_index(keys, grid.shape)).reshape(-1, 3)
        got = build_rulebook(coords, grid, kernel_size).neighbors
        want = rulebook_by_dense_table(coords, grid, kernel_size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rulebook_peak_stays_under_twice_its_table(self):
        grid = CylGridSpec(40, 40, 8, 40.0, (0.0, 8.0))
        t = frame_of(np.random.default_rng(9), 4000, 1, grid=grid)
        tracemalloc.start()
        try:
            rb = build_rulebook(t.coords, t.grid, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rb.neighbors.nbytes, f"peak {peak / rb.neighbors.nbytes:.2f} tables"

    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_peak_memory_stays_under_a_quarter_of_the_full_gather(self, kind):
        rng = np.random.default_rng(9)
        t = frame_of(rng, 5000, 64, grid=CylGridSpec(40, 40, 8, 40.0, (0.0, 8.0)))
        k, k_w, _ = draw_conv(rng, kind, 64, 64, 3)
        rb = build_rulebook(t.coords, t.grid, 3)
        x = Tensor(t.features, requires_grad=True)
        w = Tensor(k_w, requires_grad=True)
        upstream = rng.normal(size=(t.n_active, 64))
        peak = peak_bytes(lambda: apply_spatial(x, rb, k, weights=w).backward(upstream))
        full_gather = t.n_active * 27 * 64 * 8
        assert peak < full_gather / 4, f"peak {peak / 1e6:.1f} MB"
