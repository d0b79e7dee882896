"""The voxel, histogram and rulebook passes against their earlier
implementations in `pass_reference`, byte for byte."""

import numpy as np
import pytest

from lim3d import (CylGridSpec, PointCloud, ReflecConfig, build_rulebook, coarse_histograms,
                   normalize_reflectivity, reflectivity, voxelize)
from lim3d.sparseconv import SPATIAL_BLOCK
from lim3d.voxel import COLUMN_BLOCK, ROW_BLOCK
from pass_reference import (build_rulebook_reference, coarse_histograms_reference, point_rows,
                            voxelize_reference)

GRID = CylGridSpec(n_rho=6, n_phi=8, n_z=5, rho_max=6.0, z_range=(-2.0, 3.0))


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def cloud(rng, n, extra_width=None, drop=False, labels=True):
    """`n` random points, inside `GRID` unless `drop`, with `extra_width`
    float32 feature columns when given."""
    lim, z_lo, z_hi = (7.0, -3.0, 4.0) if drop else (4.2, -1.9, 2.9)
    xyz = np.column_stack([rng.uniform(-lim, lim, size=(n, 2)), rng.uniform(z_lo, z_hi, n)])
    extra = None if extra_width is None else rng.normal(size=(n, extra_width)).astype(np.float32)
    return PointCloud(xyz=xyz, intensity=rng.uniform(size=n),
                      labels=rng.integers(0, 5, n) if labels else None, extra_features=extra)


def assert_voxelize_matches(pc):
    got, want = voxelize(pc, GRID), voxelize_reference(pc, GRID)
    for a, b in ((got.coords, want.coords), (got.features, want.features),
                 (got.point_rows, want.point_rows)):
        assert_same_bytes(a, b)
    searched = point_rows(pc, got)
    assert_same_bytes(got.point_rows, np.where(searched >= 0, searched, got.n_active))
    assert (got.labels is None) == (want.labels is None)
    if got.labels is not None:
        assert_same_bytes(got.labels, want.labels)
    return got


class TestVoxelize:
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("extra_width", [None, 1, COLUMN_BLOCK, 2 * COLUMN_BLOCK + 3])
    @pytest.mark.parametrize("n", [37, 2 * ROW_BLOCK + 5])
    def test_matches_masked_column_reads(self, rng, drop, extra_width, n):
        pc = cloud(rng, n, extra_width, drop)
        t = assert_voxelize_matches(pc)
        assert (t.dropped_points > 0) == drop
        assert t.channels == 4 + (extra_width or 0)

    def test_without_labels(self, rng):
        assert_voxelize_matches(cloud(rng, 300, 3, drop=True, labels=False))

    @pytest.mark.parametrize("extra_width", [None, 2])
    def test_empty_cloud(self, extra_width):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0), labels=np.empty(0, int),
                        extra_features=None if extra_width is None else np.empty((0, extra_width)))
        assert assert_voxelize_matches(pc).n_active == 0

    def test_edge_and_far_points(self):
        # rho just below rho_max, phi = +pi and -pi, z on both z edges and
        # just below z_max, then points whose bin index would overflow int64.
        below = float(np.nextafter(np.float32(6.0), np.float32(0.0)))
        top = float(np.nextafter(np.float32(3.0), np.float32(0.0)))
        xyz = [[below, 0.0, 0.0], [-1.0, 0.0, 0.5], [-1.0, -0.0, 0.5], [2.5, 1.0, -2.0],
               [2.5, 1.0, 3.0], [0.0, 2.0, top], [1e38, 0.0, 0.0], [1.0, 1.0, -1e38],
               [1.0, -1.0, 1e38]]
        pc = PointCloud(xyz=xyz, intensity=np.linspace(0, 1, len(xyz)), labels=np.arange(len(xyz)))
        t = assert_voxelize_matches(pc)
        assert t.dropped_points == 4

    @pytest.mark.parametrize("xyz", [[1.0, 0.5, 0.0], [9.0, 0.0, 0.0]])
    def test_single_point_inside_or_dropped(self, xyz):
        pc = PointCloud(xyz=[xyz], intensity=[0.25], labels=[3], extra_features=[[1.5, -2.0]])
        t = assert_voxelize_matches(pc)
        assert t.n_active + t.dropped_points == 1


CONFIGS = [ReflecConfig(), ReflecConfig(n_bins=1, bin_grids=((1, 1),)),
           ReflecConfig(n_bins=4, bin_grids=((3, 5), (1, 7), (6, 2), (2, 2)))]


class TestCoarseHistograms:
    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("n", [1, 50, 3000])
    def test_matches_per_scale_gathers(self, rng, cfg, n):
        pc = cloud(rng, n)
        r = normalize_reflectivity(reflectivity(pc))
        assert_same_bytes(coarse_histograms(pc, r, cfg), coarse_histograms_reference(pc, r, cfg))

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_value_bin_edges(self, rng, cfg):
        # Random points, then points on cell edges: rho at k/8 of the span
        # [0, 6], so that rho fraction x n_rho is an exact integer for most
        # grids, on the +x and +y axes and at phi = +pi and -pi.
        rho = np.arange(9) * 0.75
        zero = np.zeros(9)
        edges = np.vstack([np.column_stack(c) for c in ((rho, zero), (zero, rho), (-rho, zero),
                                                       (-rho, -zero))] + [[[1.5, 1.5]] * 4])
        random_pc = cloud(rng, 40)
        edge_pc = PointCloud(xyz=np.column_stack([edges, rng.uniform(-1, 1, 40)]),
                             intensity=rng.uniform(size=40))
        r = np.resize([0.0, 0.5, 0.25, 0.1, 0.999999], 40)
        for pc in (random_pc, edge_pc):
            assert_same_bytes(coarse_histograms(pc, r, cfg), coarse_histograms_reference(pc, r, cfg))

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_zero_rho_span(self, rng, cfg):
        # Four points at radius 2 exactly, at several heights.
        xy = np.resize([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]], (12, 2))
        pc = PointCloud(xyz=np.column_stack([xy, rng.uniform(-1, 1, 12)]),
                        intensity=rng.uniform(size=12))
        r = normalize_reflectivity(reflectivity(pc))
        got = coarse_histograms(pc, r, cfg)
        assert_same_bytes(got, coarse_histograms_reference(pc, r, cfg))
        assert got.max() == 1.0

    def test_empty_cloud(self):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
        got = coarse_histograms(pc, np.empty(0), ReflecConfig())
        assert_same_bytes(got, coarse_histograms_reference(pc, np.empty(0), ReflecConfig()))


def random_sites(rng, grid, n_sites, shuffled=True):
    keys = rng.choice(grid.n_cells, size=min(n_sites, grid.n_cells), replace=False)
    if not shuffled:
        keys.sort()
    return np.column_stack(np.unravel_index(keys, grid.shape)).reshape(-1, 3)


class TestRulebook:
    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(5, 1, 4), (5, 2, 4), (1, 9, 6), (6, 9, 1), (1, 1, 1),
                                       (7, 11, 5)])
    @pytest.mark.parametrize("fill", [0.1, 0.6, 1.0])
    def test_matches_sort_and_search(self, rng, kernel_size, shape, fill):
        grid = CylGridSpec(*shape, rho_max=float(shape[0]), z_range=(0.0, float(shape[2])))
        coords = random_sites(rng, grid, max(1, int(fill * grid.n_cells)))
        got = build_rulebook(coords, grid, kernel_size).neighbors
        assert_same_bytes(got, build_rulebook_reference(coords, grid, kernel_size).neighbors)

    @pytest.mark.parametrize("n_sites", [0, 1, SPATIAL_BLOCK, 2 * SPATIAL_BLOCK + 7])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_across_blocks(self, rng, n_sites, shuffled):
        grid = CylGridSpec(12, 16, 8, 12.0, (0.0, 8.0))
        coords = random_sites(rng, grid, n_sites, shuffled)
        for kernel_size in (3, 5):
            got = build_rulebook(coords, grid, kernel_size).neighbors
            assert_same_bytes(got, build_rulebook_reference(coords, grid, kernel_size).neighbors)
            assert got.shape == (n_sites, kernel_size ** 3)
