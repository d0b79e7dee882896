import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse_tensor
from lim3d import (CapacityError, CylGridSpec, PointCloud, SparseVoxelTensor,
                   ValidationError, densify, point_rows, sparsify, voxelize)


GRID = CylGridSpec(n_rho=4, n_phi=4, n_z=4, rho_max=4.0, z_range=(-2.0, 2.0))


class TestVoxelize:
    def test_hand_binned_point(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5])
        t = voxelize(pc, GRID)
        # rho=1 -> bin 1 of [0,4); phi=0 -> bin 2 of [-pi,pi); z=0 -> bin 2 of [-2,2)
        np.testing.assert_array_equal(t.coords, [[1, 2, 2]])

    def test_two_identical_points_mean(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]] * 2, intensity=[0.5, 0.5])
        t = voxelize(pc, GRID)
        assert t.n_active == 1
        single = voxelize(PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5]), GRID)
        np.testing.assert_allclose(t.features, single.features)

    def test_empty_cloud(self):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
        assert voxelize(pc, GRID).n_active == 0

    def test_out_of_range_points_dropped_and_counted(self):
        pc = PointCloud(xyz=[[10.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 3.0]],
                        intensity=[0.1, 0.2, 0.3])
        t = voxelize(pc, GRID)
        assert t.n_active == 1
        assert t.dropped_points == 2

    def test_active_sites_never_exceed_points(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 300))
            pc = PointCloud(xyz=rng.normal(scale=2.0, size=(n, 3)),
                            intensity=rng.uniform(size=n))
            assert voxelize(pc, GRID).n_active <= n

    def test_majority_vote_ties_break_low(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0], [1.01, 0.0, 0.0]],
                        intensity=[0.5, 0.5], labels=[2, 1])
        t = voxelize(pc, GRID)
        assert t.labels.tolist() == [1]

    @pytest.mark.parametrize("labels", [[-1, -1, 0], [-1, -1, -1]])
    def test_negative_label_rejected(self, labels):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0], [1.01, 0.0, 0.0], [1.02, 0.0, 0.0]],
                        intensity=[0.5] * 3, labels=labels)
        with pytest.raises(ValidationError, match="nonnegative"):
            voxelize(pc, GRID)

    def test_vote_matches_dense_vote(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 200))
            labels = rng.choice([0, 1, 3, 7, 12], size=n) if rng.integers(2) else \
                rng.integers(0, 4, size=n)
            pc = PointCloud(xyz=rng.uniform(-4.5, 4.5, size=(n, 3)),
                            intensity=rng.uniform(size=n), labels=labels)
            t = voxelize(pc, GRID)
            rows = point_rows(pc, t)
            kept = rows >= 0
            # One row per voxel over every id up to the largest.
            votes = np.zeros((t.n_active, int(labels.max()) + 1), dtype=np.int64)
            np.add.at(votes, (rows[kept], labels[kept]), 1)
            np.testing.assert_array_equal(t.labels, votes.argmax(axis=1))

    def test_sentinel_label_votes_without_large_table(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0], [1.01, 0.0, 0.0]],
                        intensity=[0.5, 0.5], labels=[0, 0xFFFFFFFF])
        tracemalloc.start()
        try:
            t = voxelize(pc, GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.labels.tolist() == [0]
        assert peak < 1 << 20

    def test_permutation_invariance(self, rng):
        n = 60
        xyz = rng.normal(scale=1.5, size=(n, 3))
        inten = rng.uniform(size=n)
        perm = rng.permutation(n)
        a = voxelize(PointCloud(xyz=xyz, intensity=inten), GRID)
        b = voxelize(PointCloud(xyz=xyz[perm], intensity=inten[perm]), GRID)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_allclose(a.features, b.features, atol=1e-6)

    def test_extra_features_reduced(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]] * 2, intensity=[0.5, 0.5],
                        extra_features=[[1.0, 3.0], [3.0, 5.0]])
        t = voxelize(pc, GRID)
        assert t.channels == 6
        np.testing.assert_allclose(t.features[0, 4:], [2.0, 4.0])


def cloud_with_extra(rng, n, columns, drop):
    """`n` labelled points with float32 extra features, inside GRID unless
    `drop`; also the mask of the points inside."""
    lim, z_lim = (4.5, 3.0) if drop else (2.5, 1.9)
    xyz = np.column_stack([rng.uniform(-lim, lim, size=(n, 2)), rng.uniform(-z_lim, z_lim, n)])
    pc = PointCloud(xyz=xyz, intensity=rng.uniform(size=n), labels=rng.integers(0, 4, n),
                    extra_features=rng.normal(size=(n, columns)).astype(np.float32))
    xyz = pc.xyz.astype(np.float64)
    keep = (np.hypot(xyz[:, 0], xyz[:, 1]) < 4.0) & (xyz[:, 2] >= -2.0) & (xyz[:, 2] < 2.0)
    assert keep.all() != drop
    return pc, keep


class TestExtraFeaturesReadInPlace:
    @pytest.mark.parametrize("drop", [False, True])
    def test_equals_voxelizing_the_masked_copy(self, rng, drop):
        pc, keep = cloud_with_extra(rng, 400, 6, drop)
        t = voxelize(pc, GRID)
        # The earlier path: the kept points' columns copied whole, `extra_features[keep]`.
        ref = voxelize(PointCloud(xyz=pc.xyz[keep], intensity=pc.intensity[keep],
                                  labels=pc.labels[keep], extra_features=pc.extra_features[keep]),
                       GRID)
        assert t.dropped_points == len(pc) - keep.sum() and ref.dropped_points == 0
        for a, b in ((t.coords, ref.coords), (t.features, ref.features), (t.labels, ref.labels)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("drop", [False, True])
    def test_peak_stays_under_half_the_extra_features(self, rng, drop):
        pc, _ = cloud_with_extra(rng, 5000, 100, drop)
        tracemalloc.start()
        try:
            voxelize(pc, GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pc.extra_features.nbytes / 2, f"peak {peak / 1e6:.2f} MB"


class TestDenseRoundTrip:
    def test_single_voxel(self):
        t = SparseVoxelTensor(grid=GRID, coords=[[1, 2, 3]], features=[[7.0, 8.0]])
        dense = densify(t)
        assert dense.shape == (4, 4, 4, 2)
        np.testing.assert_allclose(dense[1, 2, 3], [7.0, 8.0])
        assert np.count_nonzero(dense) == 2

    def test_empty_tensor(self):
        t = SparseVoxelTensor(grid=GRID, coords=np.empty((0, 3), dtype=np.int64),
                              features=np.empty((0, 3)))
        assert not densify(t).any()

    def test_densify_sparsify_identity(self, rng):
        for _ in range(20):
            t = random_sparse_tensor(rng)
            back = sparsify(densify(t), t.grid)
            np.testing.assert_array_equal(back.coords, t.coords)
            np.testing.assert_array_equal(back.features, t.features)

    def test_sparsify_densify_identity(self, rng):
        dense = rng.normal(size=(4, 4, 4, 2))
        t = sparsify(dense, GRID)
        np.testing.assert_array_equal(densify(t), dense)

    def test_capacity_guard(self):
        grid = CylGridSpec(500, 500, 500, 10.0, (0.0, 1.0))
        t = SparseVoxelTensor(grid=grid, coords=[[0, 0, 0]], features=[[1.0] * 100])
        with pytest.raises(CapacityError):
            densify(t)


class TestInvariantsAndSerialization:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            SparseVoxelTensor(grid=GRID, coords=[[1, 1, 1], [1, 1, 1]],
                              features=[[1.0], [2.0]])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            SparseVoxelTensor(grid=GRID, coords=[[9, 0, 0]], features=[[1.0]])

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValidationError):
            SparseVoxelTensor(grid=GRID, coords=[[0, 0, 0]], features=[[np.inf]])

    def test_coords_sorted_on_construction(self):
        t = SparseVoxelTensor(grid=GRID, coords=[[3, 0, 0], [0, 0, 1], [0, 0, 0]],
                              features=[[3.0], [1.0], [0.0]])
        np.testing.assert_array_equal(t.coords, [[0, 0, 0], [0, 0, 1], [3, 0, 0]])
        np.testing.assert_allclose(t.features[:, 0], [0.0, 1.0, 3.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_voxelize_pure_function_of_seed(seed):
    from lim3d import SceneSpec, synth_sequence
    spec = SceneSpec(n_points=64)
    a = synth_sequence(spec, 1, seed=seed)[0][0]
    b = synth_sequence(spec, 1, seed=seed)[0][0]
    ta = voxelize(a, GRID)
    tb = voxelize(b, GRID)
    np.testing.assert_array_equal(ta.coords, tb.coords)
    np.testing.assert_array_equal(ta.features, tb.features)


def brute_point_rows(pc, t):
    """Per-point binning by the module's rule, then a dict lookup of the cell."""
    g = t.grid
    z_min, z_max = g.z_range
    cells = {tuple(c): row for row, c in enumerate(t.coords.tolist())}
    rows = []
    for x, y, z in pc.xyz.astype(np.float64).tolist():
        rho, phi = np.hypot(x, y), np.arctan2(y, x)
        if not (rho < g.rho_max and z_min <= z < z_max):
            rows.append(-1)
            continue
        cell = (min(int(np.floor(rho / g.rho_max * g.n_rho)), g.n_rho - 1),
                int(np.floor((phi + np.pi) / (2.0 * np.pi) * g.n_phi)) % g.n_phi,
                min(int(np.floor((z - z_min) / (z_max - z_min) * g.n_z)), g.n_z - 1))
        rows.append(cells.get(cell, -1))
    return rows


# Points on the grid's edges: rho just below rho_max, phi = +pi and -pi,
# z = z_min (kept) and z = z_max (dropped).
EDGE_POINTS = [
    (float(np.nextafter(np.float32(4.0), np.float32(0.0))), 0.0, 0.0),
    (-1.0, 0.0, 0.5),
    (-1.0, -0.0, 0.5),
    (2.5, 1.0, -2.0),
    (2.5, 1.0, 2.0),
]


class TestPointRows:
    def test_edges(self):
        pc = PointCloud(xyz=EDGE_POINTS, intensity=np.zeros(len(EDGE_POINTS)))
        t = voxelize(pc, GRID)
        rows = point_rows(pc, t)
        assert rows.dtype == np.int64
        assert rows[-1] == -1 and (rows[:-1] >= 0).all()
        assert t.coords[rows[0], 0] == GRID.n_rho - 1
        assert rows[1] == rows[2] and t.coords[rows[1], 1] == 0  # phi = pi wraps onto -pi
        assert t.coords[rows[3], 2] == 0
        assert rows.tolist() == brute_point_rows(pc, t)

    def test_empty_cloud(self):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
        rows = point_rows(pc, voxelize(pc, GRID))
        assert rows.dtype == np.int64 and rows.shape == (0,)

    def test_every_point_outside(self):
        pc = PointCloud(xyz=[[9.0, 0.0, 0.0], [0.0, 1.0, 5.0], [1.0, 1.0, -3.0]],
                        intensity=np.zeros(3))
        t = voxelize(pc, GRID)
        assert t.n_active == 0
        np.testing.assert_array_equal(point_rows(pc, t), [-1, -1, -1])

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.one_of(
               st.sampled_from(EDGE_POINTS),
               st.tuples(st.floats(-6, 6), st.floats(-6, 6), st.floats(-3, 3))), max_size=40),
           n_rho=st.integers(1, 6), n_phi=st.integers(1, 9), n_z=st.integers(1, 5),
           split=st.integers(0, 40))
    def test_matches_brute_force(self, points, n_rho, n_phi, n_z, split):
        # `t` holds only the first `split` points, so some cells of the
        # later points may be inactive in it.
        grid = CylGridSpec(n_rho, n_phi, n_z, rho_max=4.0, z_range=(-2.0, 2.0))
        pc = PointCloud(xyz=np.array(points, dtype=np.float64).reshape(-1, 3),
                        intensity=np.zeros(len(points)))
        t = voxelize(PointCloud(xyz=pc.xyz[:split], intensity=pc.intensity[:split]), grid)
        assert point_rows(pc, t).tolist() == brute_point_rows(pc, t)


def reference_voxel_features(pc, t):
    """Each point's row added into its voxel's float64 sum, one point at a
    time in point order; the mean minus the voxel center, cast to float32."""
    rows = point_rows(pc, t)
    columns = [pc.xyz, pc.intensity[:, None]]
    if pc.extra_features is not None:
        columns.append(pc.extra_features)
    point_feats = np.hstack(columns).astype(np.float64)
    sums = np.zeros((t.n_active, point_feats.shape[1]))
    counts = np.zeros(t.n_active)
    for row, feats in zip(rows.tolist(), point_feats):
        if row >= 0:
            sums[row] += feats
            counts[row] += 1
    assert (counts > 0).all() and counts.sum() == len(pc) - t.dropped_points
    means = sums / counts[:, None]
    cyl = t.grid.voxel_centers(t.coords)
    means[:, :3] -= np.column_stack([cyl[:, 0] * np.cos(cyl[:, 1]),
                                     cyl[:, 0] * np.sin(cyl[:, 1]), cyl[:, 2]])
    return means.astype(np.float32)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120), n_extra=st.integers(0, 3))
def test_voxelize_matches_per_point_reference(seed, n, n_extra):
    # 120 points on GRID's 64 cells, some outside it: cells repeat.
    rng = np.random.default_rng(seed)
    pc = PointCloud(xyz=rng.uniform(-4.5, 4.5, size=(n, 3)),
                    intensity=rng.uniform(size=n),
                    extra_features=rng.normal(size=(n, n_extra)) if n_extra else None)
    t = voxelize(pc, GRID)
    assert t.features.dtype == np.float32
    assert t.features.shape == (t.n_active, 4 + n_extra)
    np.testing.assert_array_equal(t.features, reference_voxel_features(pc, t))
