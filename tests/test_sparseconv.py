import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, max_rel_err, peak_bytes, random_sparse_tensor
from dense_reference import (dense_pointwise_reference, dense_separable_reference,
                             dense_spatial_reference)
from lim3d import (ConvKernel, ConvSpec, CylGridSpec, DomainError, LayerSpec, ShapeError,
                   SparseVoxelTensor, ValidationError, build_rulebook, conv_cost, densify,
                   glorot_kernel, identity_kernel, separable_conv,
                   sparse_pointwise_conv, submanifold_conv, topology_cost)
from lim3d.autodiff import Tensor
from lim3d.sparseconv import (SPATIAL_BLOCK, apply_pointwise, apply_spatial, pointwise_forward,
                              spatial_forward)


def active_mask(t):
    mask = np.zeros(t.grid.shape, dtype=bool)
    mask[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = True
    return mask


def masked_rows(dense_out, t):
    return dense_out[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]]


class TestKernelValidation:
    def test_depthwise_needs_matching_channels(self):
        with pytest.raises(ShapeError):
            ConvKernel("depthwise", 2, 3, 3, np.zeros((3, 3, 3, 2)))

    def test_pointwise_needs_size_one(self):
        with pytest.raises(DomainError):
            ConvKernel("pointwise", 2, 2, 3, np.eye(2))

    def test_even_kernel_rejected(self):
        with pytest.raises(DomainError):
            ConvKernel("standard", 1, 1, 2, np.zeros((2, 2, 2, 1, 1)))

    def test_unknown_kind_rejected_by_the_layout_table(self, rng):
        with pytest.raises(DomainError):
            ConvSpec("dense", 2, 2, 3, False).weight_shape
        with pytest.raises(DomainError):
            conv_cost("dense", 2, 2, 3, False, 10)
        with pytest.raises(DomainError):
            glorot_kernel("dense", 2, 2, 3, rng)
        # Channel counts and kernel sizes are integers >= 1; numpy integers pass.
        for kind, m, n, d in [("pointwise", 3, 0, 1), ("depthwise", 3, 3, 2.5),
                              ("depthwise", 0, 0, 3), ("standard", 3.0, 3, 3),
                              ("pointwise", 3, 3, True), ("standard", -1, 3, 3)]:
            with pytest.raises(DomainError):
                ConvSpec(kind, m, n, d, False).weight_shape
            with pytest.raises(DomainError):
                glorot_kernel(kind, m, n, d, rng)
        spec = ConvSpec("standard", np.int64(2), np.int32(3), np.uint8(3), False)
        assert spec.weight_shape == (3, 3, 3, 2, 3)

    @pytest.mark.parametrize("kind,m,n,d,fan_in,fan_out", [
        ("standard", 2, 5, 3, 2 * 27, 5 * 27), ("depthwise", 4, 4, 5, 125, 125),
        ("pointwise", 2, 5, 1, 2, 5)])
    def test_glorot_limit_from_the_fans(self, kind, m, n, d, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        k = glorot_kernel(kind, m, n, d, np.random.default_rng(1))
        want = np.random.default_rng(1).uniform(-limit, limit, k.weights.shape)
        assert k.weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["standard", "depthwise", "pointwise"])
    def test_live_weights_bring_their_own_bias(self, rng, kind):
        """Given `weights`, a node's weights and bias are exactly its arguments,
        and a `ConvSpec` may stand in for the kernel; without `weights`, both
        come from the `ConvKernel`, and a `ConvSpec` is refused."""
        t = random_sparse_tensor(rng, channels=3)
        rb = build_rulebook(t.coords, t.grid, 3)
        n, d = (3 if kind == "depthwise" else 4), (1 if kind == "pointwise" else 3)
        k = ConvKernel(kind, 3, n, d, glorot_kernel(kind, 3, n, d, rng).weights, rng.normal(size=n))
        w, b = rng.normal(size=k.weights.shape), rng.normal(size=n)

        def node(kernel, **live):
            if kind == "pointwise":
                return apply_pointwise(t.features, kernel, **live).data.tobytes()
            return apply_spatial(t.features, rb, kernel, **live).data.tobytes()

        def plain(weights, bias):
            if kind == "pointwise":
                return pointwise_forward(t.features, weights, bias).tobytes()
            return spatial_forward(t.features, rb.neighbors, weights, bias).tobytes()

        assert node(k) == node(k, bias=Tensor(b)) == plain(k.weights, k.bias)
        for kernel in (k, ConvSpec(kind, 3, n, d, True)):
            assert node(kernel, weights=Tensor(w), bias=Tensor(b)) == plain(w, b)
            assert node(kernel, weights=Tensor(w)) == plain(w, None)
        with pytest.raises(ValidationError, match="live `weights`"):
            node(ConvSpec(kind, 3, n, d, True))

    def test_channel_mismatch_raises(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        with pytest.raises(ShapeError):
            submanifold_conv(t, identity_kernel("standard", 5))
        with pytest.raises(ShapeError):
            sparse_pointwise_conv(t, identity_kernel("pointwise", 5))


class TestIdentityAndZero:
    def test_identity_standard(self, rng):
        t = random_sparse_tensor(rng, channels=4)
        out = submanifold_conv(t, identity_kernel("standard", 4))
        np.testing.assert_allclose(out.features, t.features)
        assert out.coord_set() == t.coord_set()

    def test_identity_depthwise(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = submanifold_conv(t, identity_kernel("depthwise", 3))
        np.testing.assert_allclose(out.features, t.features)

    def test_identity_pointwise(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = sparse_pointwise_conv(t, identity_kernel("pointwise", 3))
        np.testing.assert_allclose(out.features, t.features)

    def test_zero_weights_zero_output_same_sites(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        k = ConvKernel("standard", 2, 2, 3, np.zeros((3, 3, 3, 2, 2)))
        out = submanifold_conv(t, k)
        assert out.coord_set() == t.coord_set()
        np.testing.assert_array_equal(out.features, 0.0)

    def test_separable_identity_composition(self, rng):
        t = random_sparse_tensor(rng, channels=3)
        out = separable_conv(t, identity_kernel("depthwise", 3),
                             identity_kernel("pointwise", 3))
        np.testing.assert_allclose(out.features, t.features)


class TestHandExamples:
    def test_pointwise_channel_mix(self):
        grid = CylGridSpec(2, 2, 2, 2.0, (0.0, 2.0))
        t = SparseVoxelTensor(grid=grid, coords=[[0, 0, 0]], features=[[1.0, 2.0]])
        k = ConvKernel("pointwise", 2, 2, 1, np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sparse_pointwise_conv(t, k).features, [[1.0, 3.0]])

    def test_empty_tensor_passthrough(self):
        grid = CylGridSpec(2, 2, 2, 2.0, (0.0, 2.0))
        t = SparseVoxelTensor(grid=grid, coords=np.empty((0, 3), dtype=np.int64),
                              features=np.empty((0, 2)))
        assert sparse_pointwise_conv(t, identity_kernel("pointwise", 2)).n_active == 0
        assert submanifold_conv(t, identity_kernel("standard", 2)).n_active == 0


class TestDenseOracle:
    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_spatial_matches_dense(self, rng, kind):
        for _ in range(12):
            channels = int(rng.integers(1, 5))
            t = random_sparse_tensor(rng, channels=channels, max_dim=6)
            out_ch = channels if kind == "depthwise" else int(rng.integers(1, 5))
            k = glorot_kernel(kind, channels, out_ch, 3, rng, bias=bool(rng.integers(2)))
            out = submanifold_conv(t, k)
            ref = dense_spatial_reference(densify(t), active_mask(t), k.weights,
                                          kind, bias=k.bias)
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5
            assert out.coord_set() == t.coord_set()

    def test_pointwise_matches_dense(self, rng):
        for _ in range(12):
            channels = int(rng.integers(1, 6))
            t = random_sparse_tensor(rng, channels=channels, max_dim=6)
            k = glorot_kernel("pointwise", channels, int(rng.integers(1, 6)), 1, rng,
                              bias=True)
            out = sparse_pointwise_conv(t, k)
            ref = dense_pointwise_reference(densify(t), active_mask(t), k.weights, k.bias)
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    def test_separable_matches_dense_fully_active(self, rng):
        grid = CylGridSpec(3, 4, 3, 3.0, (0.0, 3.0))
        keys = np.arange(grid.n_cells)
        coords = np.column_stack([keys // (grid.n_phi * grid.n_z),
                                  (keys // grid.n_z) % grid.n_phi,
                                  keys % grid.n_z])
        t = SparseVoxelTensor(grid=grid, coords=coords,
                              features=rng.normal(size=(grid.n_cells, 3)))
        dw = glorot_kernel("depthwise", 3, 3, 3, rng)
        pw = glorot_kernel("pointwise", 3, 5, 1, rng, bias=True)
        out = separable_conv(t, dw, pw)
        ref = dense_separable_reference(densify(t), active_mask(t), dw.weights,
                                        pw.weights, pw_bias=pw.bias)
        assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    def test_separable_equals_explicit_composition(self, rng):
        t = random_sparse_tensor(rng, channels=4)
        dw = glorot_kernel("depthwise", 4, 4, 3, rng)
        pw = glorot_kernel("pointwise", 4, 6, 1, rng, bias=True)
        fused = separable_conv(t, dw, pw)
        two_step = sparse_pointwise_conv(submanifold_conv(t, dw), pw)
        np.testing.assert_array_equal(fused.features, two_step.features)


class TestInvariants:
    def test_submanifold_set_equality_batch(self, rng):
        for _ in range(50):
            t = random_sparse_tensor(rng)
            kind = ("standard", "depthwise")[int(rng.integers(2))]
            out_ch = t.channels if kind == "depthwise" else int(rng.integers(1, 9))
            k = glorot_kernel(kind, t.channels, out_ch, 3, rng)
            assert submanifold_conv(t, k).coord_set() == t.coord_set()

    def test_linearity_bias_free(self, rng):
        t1 = random_sparse_tensor(rng, channels=3)
        t2 = t1.with_features(rng.normal(size=t1.features.shape))
        k = glorot_kernel("standard", 3, 4, 3, rng)
        a, b = 0.7, -1.3
        combo = submanifold_conv(t1.with_features(a * t1.features + b * t2.features), k)
        split = a * submanifold_conv(t1, k).features + b * submanifold_conv(t2, k).features
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
        assert conv_cost("standard", 4, 4, 3, False, 0).mult_adds == 0
        assert layer_cost("separable", 4, 8, 3, 0).mult_adds == 0

    def test_multadds_proportional_to_pairs(self):
        assert conv_cost("standard", 3, 5, 3, False, 10, neighbor_pairs=40).mult_adds == 40 * 3 * 5
        assert conv_cost("depthwise", 3, 3, 3, False, 10, neighbor_pairs=40).mult_adds == 40 * 3
        assert conv_cost("pointwise", 3, 5, 1, False, 10).mult_adds == 10 * 3 * 5
        # A separable layer: the depthwise pass over every pair, one mix per site.
        assert layer_cost("separable", 3, 5, 3, 10, 40).mult_adds == 40 * 3 + 10 * 3 * 5

    def test_bias_counts(self):
        assert conv_cost("pointwise", 4, 6, 1, True, 0).trainable_params == 4 * 6 + 6


class TestGradients:
    def test_conv_gradients_fd(self, rng):
        """Weights, bias and input gradients for each conv kind."""
        for kind in ("standard", "depthwise", "pointwise"):
            for _ in range(6):
                channels = int(rng.integers(1, 4))
                t = random_sparse_tensor(rng, channels=channels, max_dim=4, max_active=10)
                out_ch = channels if kind == "depthwise" else int(rng.integers(1, 4))
                k = glorot_kernel(kind, channels, out_ch,
                                  1 if kind == "pointwise" else 3, rng, bias=True)
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

                w, x, b, loss = run(k.weights, t.features, k.bias)
                loss.backward()
                fd_w = finite_difference(
                    lambda v: run(v, t.features, k.bias)[3].item(), k.weights)
                fd_x = finite_difference(
                    lambda v: run(k.weights, v, k.bias)[3].item(), t.features)
                fd_b = finite_difference(
                    lambda v: run(k.weights, t.features, v)[3].item(), k.bias)
                assert max_rel_err(w.grad, fd_w) < 1e-3
                assert max_rel_err(x.grad, fd_x) < 1e-3
                assert max_rel_err(b.grad, fd_b) < 1e-3

    def test_identity_sum_gives_unit_input_gradient(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        rb = build_rulebook(t.coords, t.grid, 3)
        k = identity_kernel("standard", 2)
        x = Tensor(t.features, requires_grad=True)
        apply_spatial(x, rb, k).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_zero_upstream_gradient(self, rng):
        t = random_sparse_tensor(rng, channels=2)
        rb = build_rulebook(t.coords, t.grid, 3)
        k = glorot_kernel("standard", 2, 3, 3, rng)
        w = Tensor(k.weights, requires_grad=True)
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
        k = glorot_kernel(kind, channels, out_ch, kernel_size, rng, bias=data.draw(st.booleans()))
        out = submanifold_conv(t, k)
        ref = dense_spatial_reference(densify(t), active_mask(t), k.weights, kind, bias=k.bias)
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
        keys = rng.choice(grid.n_cells, size=10, replace=False)
        t = SparseVoxelTensor(grid=grid, coords=np.column_stack(np.unravel_index(keys, grid.shape)),
                              features=rng.normal(size=(10, 2)))
        out_ch = 2 if kind == "depthwise" else 3
        k = glorot_kernel(kind, 2, out_ch, 5, rng, bias=True)
        rb = build_rulebook(t.coords, t.grid, 5)
        downstream = rng.normal(size=(t.n_active, out_ch))

        def run(w_arr, x_arr, b_arr):
            w = Tensor(w_arr, requires_grad=True)
            x = Tensor(x_arr, requires_grad=True)
            b = Tensor(b_arr, requires_grad=True)
            out = apply_spatial(x, rb, k, weights=w, bias=b)
            return w, x, b, (out * Tensor(downstream)).sum()

        w, x, b, loss = run(k.weights, t.features, k.bias)
        loss.backward()
        fd_w = finite_difference(lambda v: run(v, t.features, k.bias)[3].item(), k.weights)
        fd_x = finite_difference(lambda v: run(k.weights, v, k.bias)[3].item(), t.features)
        fd_b = finite_difference(lambda v: run(k.weights, t.features, v)[3].item(), k.bias)
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
    keys = rng.choice(grid.n_cells, size=n_sites, replace=False)
    coords = np.column_stack(np.unravel_index(keys, grid.shape)).reshape(-1, 3)
    return SparseVoxelTensor(grid=grid, coords=coords,
                             features=rng.normal(size=(n_sites, channels)))


# Empty, exactly one block, one block and one row, and a ragged third block.
BLOCK_SIZES = [0, SPATIAL_BLOCK, SPATIAL_BLOCK + 1, 5 * SPATIAL_BLOCK // 2]


class TestBlocks:
    """Frames sized from `SPATIAL_BLOCK`, so the block loop runs 0 to 3 times."""

    @pytest.mark.parametrize("n_sites", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_spatial_matches_dense(self, n_sites, kind):
        rng = np.random.default_rng(n_sites)
        t = frame_of(rng, n_sites, 3)
        k = glorot_kernel(kind, 3, 3 if kind == "depthwise" else 2, 3, rng, bias=True)
        out = submanifold_conv(t, k)
        ref = dense_spatial_reference(densify(t), active_mask(t), k.weights, kind, bias=k.bias)
        assert out.features.shape == (n_sites, k.out_channels)
        if n_sites:
            assert np.abs(out.features - masked_rows(ref, t)).max() < 1e-5

    @pytest.mark.parametrize("n_sites", BLOCK_SIZES)
    def test_depthwise_forward_equals_one_shot_gather(self, n_sites):
        rng = np.random.default_rng(n_sites + 1)
        t = frame_of(rng, n_sites, 4)
        k = glorot_kernel("depthwise", 4, 4, 3, rng)
        rb = build_rulebook(t.coords, t.grid, 3)
        padded = np.concatenate([t.features, np.zeros((1, 4))])
        one_shot = np.einsum("nkc,kc->nc", padded[rb.neighbors], k.weights.reshape(27, 4))
        np.testing.assert_array_equal(apply_spatial(t.features, rb, k).data, one_shot)

    @pytest.mark.parametrize("kind", ["standard", "depthwise"])
    def test_gradients_fd_across_blocks(self, kind):
        rng = np.random.default_rng(5)
        t = frame_of(rng, BLOCK_SIZES[-1], 2)
        k = glorot_kernel(kind, 2, 2 if kind == "depthwise" else 3, 3, rng, bias=True)
        rb = build_rulebook(t.coords, t.grid, 3)
        downstream = rng.normal(size=(t.n_active, k.out_channels))

        def run(w_arr, x_arr, b_arr):
            w = Tensor(w_arr, requires_grad=True)
            x = Tensor(x_arr, requires_grad=True)
            b = Tensor(b_arr, requires_grad=True)
            out = apply_spatial(x, rb, k, weights=w, bias=b)
            return w, x, b, (out * Tensor(downstream)).sum()

        w, x, b, loss = run(k.weights, t.features, k.bias)
        loss.backward()
        fd_w = finite_difference(lambda v: run(v, t.features, k.bias)[3].item(), k.weights)
        fd_x = finite_difference(lambda v: run(k.weights, v, k.bias)[3].item(), t.features)
        fd_b = finite_difference(lambda v: run(k.weights, t.features, v)[3].item(), k.bias)
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
        k = glorot_kernel(kind, 64, 64, 3, rng)
        rb = build_rulebook(t.coords, t.grid, 3)
        x = Tensor(t.features, requires_grad=True)
        w = Tensor(k.weights, requires_grad=True)
        upstream = rng.normal(size=(t.n_active, 64))
        peak = peak_bytes(lambda: apply_spatial(x, rb, k, weights=w).backward(upstream))
        full_gather = t.n_active * 27 * 64 * 8
        assert peak < full_gather / 4, f"peak {peak / 1e6:.1f} MB"
