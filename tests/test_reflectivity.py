import numpy as np
import pytest

from lim3d import (PointCloud, ReflecConfig, ShapeError, ValidationError,
                   augment, coarse_histograms, normalize_reflectivity,
                   reflectivity, voxelize)
from lim3d.voxel import CylGridSpec

CFG = ReflecConfig(n_bins=10, bin_grids=((20, 40), (40, 80), (80, 120)))


class TestReflectivity:
    def test_intensity_times_squared_range(self):
        pc = PointCloud(xyz=[[2.0, 0.0, 0.0]], intensity=[0.5])
        assert reflectivity(pc)[0] == pytest.approx(2.0)

    def test_unit_range_returns_intensity(self):
        pc = PointCloud(xyz=[[0.0, 1.0, 0.0]], intensity=[0.37])
        assert reflectivity(pc)[0] == pytest.approx(0.37, rel=1e-6)

    def test_origin_point_zero(self):
        pc = PointCloud(xyz=[[0.0, 0.0, 0.0]], intensity=[0.9])
        assert reflectivity(pc)[0] == 0.0

    def test_normalization_into_unit_interval(self, rng):
        r = rng.uniform(0, 50, size=100)
        rn = normalize_reflectivity(r)
        assert rn.min() >= 0.0 and rn.max() < 1.0

    def test_equal_reflectivity_different_intensity_and_range(self):
        # I * r^2 identical: (0.8, r=1) and (0.2, r=2)
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], intensity=[0.8, 0.2])
        r = reflectivity(pc)
        assert r[0] == pytest.approx(r[1], rel=1e-6)
        feats = coarse_histograms(pc, normalize_reflectivity(r), CFG)
        np.testing.assert_allclose(feats[0], feats[1])


class TestCoarseHistograms:
    def test_hand_example_counts(self):
        # Four points in one bin with value bins 0, 1, 1, 9 of 10
        r_norm = np.array([0.05, 0.15, 0.15, 0.95])
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]] * 4, intensity=[0.5] * 4)
        cfg = ReflecConfig(n_bins=10, bin_grids=((1, 1),))
        feats = coarse_histograms(pc, r_norm, cfg)
        expect = np.array([0.5, 1.0, 0, 0, 0, 0, 0, 0, 0, 0.5])
        for row in feats:
            np.testing.assert_allclose(row, expect)

    def test_shared_value_one_hot(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]] * 5, intensity=[0.5] * 5)
        feats = coarse_histograms(pc, np.full(5, 0.25), ReflecConfig(n_bins=4, bin_grids=((1, 1),)))
        np.testing.assert_allclose(feats, np.tile([0, 1.0, 0, 0], (5, 1)))

    def test_single_point_one_hot_every_scale(self):
        pc = PointCloud(xyz=[[3.0, 1.0, 0.5]], intensity=[0.7])
        feats = coarse_histograms(pc, np.array([0.42]), CFG)
        feats = feats.reshape(3, 10)
        for scale_row in feats:
            assert scale_row.sum() == 1.0
            assert scale_row[4] == 1.0

    def test_output_dimension_and_range(self, rng):
        n = 200
        pc = PointCloud(xyz=rng.normal(scale=10.0, size=(n, 3)), intensity=rng.uniform(size=n))
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), CFG)
        assert feats.shape == (n, 30)
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_max_normalization_exact_one_per_nonempty_bin(self, rng):
        n = 300
        pc = PointCloud(xyz=rng.normal(scale=8.0, size=(n, 3)), intensity=rng.uniform(size=n))
        cfg = ReflecConfig(n_bins=6, bin_grids=((3, 4),))
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), cfg)
        # every point's histogram row contains an exact 1 (its bin is nonempty)
        assert np.all(feats.max(axis=1) == 1.0)

    def test_permutation_equivariance(self, rng):
        n = 80
        xyz = rng.normal(scale=5.0, size=(n, 3))
        inten = rng.uniform(size=n)
        pc = PointCloud(xyz=xyz, intensity=inten)
        r = normalize_reflectivity(reflectivity(pc))
        perm = rng.permutation(n)
        pc_p = PointCloud(xyz=xyz[perm], intensity=inten[perm])
        feats = coarse_histograms(pc, r, CFG)
        feats_p = coarse_histograms(pc_p, r[perm], CFG)
        np.testing.assert_allclose(feats_p, feats[perm])

    def test_out_of_domain_rejected(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5])
        from lim3d import DomainError
        with pytest.raises(DomainError):
            coarse_histograms(pc, np.array([1.0]), CFG)


class TestAugment:
    def test_dimension_grows_by_feature_dim(self, rng):
        n = 50
        pc = PointCloud(xyz=rng.normal(size=(n, 3)), intensity=rng.uniform(size=n))
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), CFG)
        assert feats.dtype == np.float32
        aug = augment(pc, feats)
        assert aug.extra_features.shape == (n, 30)
        assert aug.extra_features.dtype == np.float32
        np.testing.assert_array_equal(aug.extra_features, feats)

    def test_float32_features_shared_and_frozen(self, rng):
        n = 50
        pc = PointCloud(xyz=rng.normal(size=(n, 3)), intensity=rng.uniform(size=n))
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), CFG)
        assert feats.flags.writeable
        aug = augment(pc, feats)
        assert np.shares_memory(aug.extra_features, feats)
        assert not feats.flags.writeable
        with pytest.raises(ValueError):
            feats[0, 0] = 2.0

    def test_zero_features_voxelize_identically_in_base_channels(self, rng):
        n = 40
        pc = PointCloud(xyz=rng.normal(scale=1.5, size=(n, 3)), intensity=rng.uniform(size=n))
        grid = CylGridSpec(4, 4, 4, 4.0, (-3.0, 3.0))
        base = voxelize(pc, grid)
        aug = voxelize(augment(pc, np.zeros((n, 5))), grid)
        np.testing.assert_array_equal(aug.coords, base.coords)
        np.testing.assert_allclose(aug.features[:, :4], base.features)
        np.testing.assert_array_equal(aug.features[:, 4:], 0.0)

    def test_double_augment_rejected(self):
        pc = PointCloud(xyz=[[1.0, 0, 0]], intensity=[0.5])
        once = augment(pc, np.zeros((1, 3)))
        with pytest.raises(ValidationError):
            augment(once, np.zeros((1, 3)))

    def test_length_mismatch_rejected(self):
        pc = PointCloud(xyz=[[1.0, 0, 0]], intensity=[0.5])
        with pytest.raises(ShapeError):
            augment(pc, np.zeros((2, 3)))
