import warnings
from dataclasses import fields

import numpy as np
import pytest

from conftest import recipe
from lim3d import (DomainError, FormatError, PointCloud, SceneSpec, ShapeError,
                   ValidationError, load_frame, project_range_image,
                   ranges_to_grayscale, read_pgm, save_frame, synth_sequence,
                   write_pgm)
from lim3d.pointcloud import UNRELIABLE_LABEL, load_labels, save_labels
from lim3d.scene import synth_frames
from range_reference import project_reference


class TestBinaryFrames:
    def test_decode_two_point_file(self, tmp_path):
        path = tmp_path / "f.bin"
        np.array([1, 0, 0, 0.5, 0, 2, 0, 0.25], dtype="<f4").tofile(path)
        pc = load_frame(path)
        assert len(pc) == 2
        np.testing.assert_allclose(pc.xyz, [[1, 0, 0], [0, 2, 0]])
        np.testing.assert_allclose(pc.intensity, [0.5, 0.25])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(load_frame(path)) == 0

    def test_malformed_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(FormatError):
            load_frame(path)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_partial_trailing_float_rejected(self, tmp_path, extra):
        path = tmp_path / "bad.bin"
        path.write_bytes(np.zeros(8, dtype="<f4").tobytes() + b"\x00" * extra)
        with pytest.raises(FormatError, match=str(32 + extra)):
            load_frame(path)

    def test_nonfinite_values_listed(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[1, 2] = np.nan
        path = tmp_path / "nan.bin"
        data.tofile(path)
        with pytest.raises(ValidationError, match="1"):
            load_frame(path)

    def test_intensity_clamped_with_warning(self, tmp_path, caplog):
        np.array([0, 0, 0, 1.5], dtype="<f4").tofile(tmp_path / "c.bin")
        with caplog.at_level("WARNING"):
            pc = load_frame(tmp_path / "c.bin")
        assert pc.intensity[0] == 1.0
        assert "clamped" in caplog.text

    def test_roundtrip_bitwise(self, tmp_path, rng):
        frames = synth_sequence(SceneSpec(n_points=1000), 1, seed=3)
        pc = frames[0][0]
        path = tmp_path / "rt.bin"
        save_frame(path, pc)
        loaded = load_frame(path)
        save_frame(tmp_path / "rt2.bin", loaded)
        assert (tmp_path / "rt.bin").read_bytes() == (tmp_path / "rt2.bin").read_bytes()
        np.testing.assert_array_equal(loaded.xyz, pc.xyz)
        np.testing.assert_array_equal(loaded.intensity, pc.intensity)

    def test_label_roundtrip(self, tmp_path):
        labels = np.array([0, 1, 2, 0xFFFFFFFF], dtype=np.uint32)
        save_labels(tmp_path / "a.label", labels)
        np.testing.assert_array_equal(load_labels(tmp_path / "a.label"), labels)

    def test_minus_one_is_written_as_the_unreliable_id(self, tmp_path):
        save_labels(tmp_path / "a.label", np.array([-1, 0, 5, 0xFFFFFFFF]))
        np.testing.assert_array_equal(load_labels(tmp_path / "a.label"),
                                      [UNRELIABLE_LABEL, 0, 5, UNRELIABLE_LABEL])

    @pytest.mark.parametrize("labels", [[-2, 5], [2**32 + 3, 5], [1.7], [1.0]])
    def test_id_that_would_change_raises_and_writes_nothing(self, tmp_path, labels):
        with pytest.raises(ValidationError):
            save_labels(tmp_path / "a.label", np.array(labels))
        assert not (tmp_path / "a.label").exists()


class TestRangeProjection:
    def test_single_point_center_pixel(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5])
        ri = project_range_image(pc, width=64, height=32, vfov=(-25.0, 25.0))
        nonzero = np.argwhere(ri > 0)
        assert nonzero.shape == (1, 3) or nonzero.shape == (1, 2)
        row, col = nonzero[0][:2]
        assert (row, col) == (16, 32)
        assert ri[row, col] == pytest.approx(1.0)

    def test_empty_cloud_all_zero(self):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
        ri = project_range_image(pc, width=8, height=4, vfov=(-10, 10))
        assert not ri.any()

    def test_nearest_point_wins(self):
        pc = PointCloud(xyz=[[5.0, 0.0, 0.0], [3.0, 0.0, 0.0]], intensity=[0.1, 0.2])
        ri = project_range_image(pc, width=16, height=8, vfov=(-10, 10))
        assert ri.max() == pytest.approx(3.0)
        assert np.count_nonzero(ri) == 1

    def test_pixels_never_exceed_points(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            pc = PointCloud(xyz=rng.normal(scale=5.0, size=(n, 3)),
                            intensity=rng.uniform(size=n))
            ri = project_range_image(pc, width=32, height=16, vfov=(-30, 30))
            assert np.count_nonzero(ri) <= n

    def test_read_only_float32_grid(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5])
        for cloud in (pc, PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))):
            ri = project_range_image(cloud, width=8, height=4, vfov=(-10, 10))
            assert ri.shape == (4, 8) and ri.dtype == np.float32
            assert not ri.flags.writeable

    def test_callers_arrays_frozen(self):
        """Arrays already in the stored dtype are shared, and frozen
        themselves, so the cloud cannot change after construction."""
        xyz = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5]], dtype=np.float32)
        intensity = np.array([0.5, 0.25], dtype=np.float32)
        labels = np.array([1, 2])
        pc = PointCloud(xyz=xyz, intensity=intensity, labels=labels)
        for arr, stored in ((xyz, pc.xyz), (intensity, pc.intensity), (labels, pc.labels)):
            assert np.shares_memory(arr, stored)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -5

    @pytest.mark.parametrize("field, value, error", [
        ("xyz", np.array([[1.0, np.nan, 0.0], [0.0, 2.0, 0.5]], dtype=np.float32),
         ValidationError),
        ("intensity", np.array([0.5], dtype=np.float32), ShapeError),
        ("labels", np.array([1, 2, 3]), ValidationError),
        ("extra_features", np.zeros((3, 2), dtype=np.float32), ShapeError),
    ])
    def test_refused_arrays_stay_writable(self, field, value, error):
        """A refused array is left writable; accepted ones are shared and frozen."""
        good = dict(xyz=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5]], dtype=np.float32),
                    intensity=np.array([0.5, 0.25], dtype=np.float32), labels=np.array([1, 2]),
                    extra_features=np.zeros((2, 2), dtype=np.float32))
        bad = {**good, field: value}
        with pytest.raises(error):
            PointCloud(**bad)
        assert all(arr.flags.writeable for arr in bad.values())
        pc = PointCloud(**good)
        for name, arr in good.items():
            assert np.shares_memory(getattr(pc, name), arr) and not arr.flags.writeable

    def test_bad_vfov(self):
        pc = PointCloud(xyz=[[1.0, 0, 0]], intensity=[0.5])
        with pytest.raises(DomainError):
            project_range_image(pc, width=8, height=8, vfov=(10.0, -10.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_coordinate_rejected(self, bad, column):
        xyz = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.5]])
        xyz[1, column] = bad
        with pytest.raises(ValidationError, match="finite"):
            PointCloud(xyz=xyz, intensity=[0.5, 0.5])

    def test_range_float32_cannot_hold_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="range"):
                PointCloud(xyz=[[3e38, 3e38, 0], [3, 0, 0]], intensity=[0, 0])

    @pytest.mark.parametrize("xyz", [[[2.4e38, 2.4e38, 0.0]], [[3.4e38, 0.0, 0.0]]])
    def test_range_just_inside_float32_projects(self, xyz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pc = PointCloud(xyz=xyz + [[0.0, -1.0, 0.0]], intensity=[0.5, 0.5])
            ri = project_range_image(pc, width=8, height=4, vfov=(-10, 10))
        assert ri.tobytes() == project_reference(pc.xyz, 8, 4, (-10, 10)).tobytes()
        assert np.count_nonzero(ri) == 2
        assert ri.max() == np.float32(np.linalg.norm(pc.xyz[0].astype(np.float64)))


class TestRangeOracle:
    """`project_range_image` against the per-point loop in range_reference.py."""

    @staticmethod
    def assert_matches(xyz, width, height, vfov):
        pc = PointCloud(xyz=xyz, intensity=np.zeros(len(xyz)))
        got = project_range_image(pc, width=width, height=height, vfov=vfov)
        want = project_reference(pc.xyz, width, height, vfov)
        assert got.tobytes() == want.tobytes()
        return got

    def test_random_clouds(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 1500))
            xyz = rng.normal(size=(n, 3)) * rng.uniform(0.5, 30.0)
            width, height = int(rng.integers(1, 64)), int(rng.integers(1, 24))
            self.assert_matches(xyz, width, height, tuple(sorted(rng.uniform(-80.0, 80.0, 2))))

    def test_many_points_per_pixel_and_equal_ranges(self, rng):
        # Integer points on a tiny image share pixels, and sign flips give equal ranges.
        xyz = rng.integers(-4, 5, size=(600, 3)).astype(np.float64)
        xyz = np.vstack([xyz, -xyz, xyz[:, [1, 0, 2]]])
        for width, height in ((1, 1), (4, 2), (9, 5)):
            self.assert_matches(xyz, width, height, (-60.0, 60.0))

    def test_points_on_the_vfov_edges(self, rng):
        xyz = rng.normal(scale=6.0, size=(400, 3)).astype(np.float32).astype(np.float64)
        el = np.degrees(np.arctan2(xyz[:, 2], np.hypot(xyz[:, 0], xyz[:, 1])))
        lo, hi = np.sort(el)[[50, 350]]
        ri = self.assert_matches(xyz, 32, 7, (float(lo), float(hi)))
        # The point at the top edge lands on row 0 and the one at the bottom is clipped in.
        assert ri[0].any() and ri[-1].any()
        flat = xyz.copy()
        flat[:, 2] = 0.0
        for vfov in ((0.0, 10.0), (-10.0, 0.0)):
            assert self.assert_matches(flat, 16, 4, vfov).any()
        # Azimuth +pi and -pi, on the seam of the image, both land in column 0.
        for y in (0.0, -0.0):
            assert self.assert_matches([[-3.0, y, 0.5]], 16, 4, (-10.0, 10.0))[:, 0].any()

    def test_zero_range_point_dropped(self):
        ri = self.assert_matches(np.zeros((3, 3)), 8, 4, (-10.0, 10.0))
        assert not ri.any()

    def test_empty_cloud(self):
        assert not self.assert_matches(np.empty((0, 3)), 8, 4, (-10.0, 10.0)).any()


class TestSynthSequence:
    @pytest.mark.parametrize("bad", [dict(n_points=-5), dict(n_points=0), dict(n_points=2.5),
                                     dict(segment_speeds=(0.0, np.nan)),
                                     dict(segment_speeds=(np.inf,)), dict(segment_speeds=()),
                                     dict(segment_length=2.5), dict(segment_length=0),
                                     dict(segment_length=True)])
    def test_bad_scene_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            SceneSpec(**bad)

    @pytest.mark.parametrize("moving_class", [0, 1, 2])
    def test_only_the_moving_class_moves(self, moving_class):
        spec = recipe(SceneSpec, n_points=90, segment_speeds=(1.0,), moving_class=moving_class)
        (a, _), (b, _) = synth_sequence(spec, 2, seed=3)
        moved = np.any(a.xyz != b.xyz, axis=1)
        np.testing.assert_array_equal(moved, a.labels == moving_class)

    def test_deterministic(self):
        spec = SceneSpec(n_points=100)
        a = synth_sequence(spec, 4, seed=9)
        b = synth_sequence(spec, 4, seed=9)
        for (pa, ra), (pb, rb) in zip(a, b):
            np.testing.assert_array_equal(pa.xyz, pb.xyz)
            np.testing.assert_array_equal(ra, rb)

    def test_static_profile_identical_frames(self):
        spec = SceneSpec(n_points=200, segment_speeds=(0.0,))
        frames = synth_sequence(spec, 5, seed=1)
        for _, ri in frames[1:]:
            np.testing.assert_array_equal(ri, frames[0][1])

    def test_moving_profile_changes_images(self):
        spec = SceneSpec(n_points=200, segment_speeds=(1.0,), segment_length=4)
        frames = synth_sequence(spec, 5, seed=1)
        for (_, prev), (_, cur) in zip(frames, frames[1:]):
            assert np.any(prev != cur)

    @pytest.mark.parametrize("spec", [
        SceneSpec(n_points=900, segment_length=3, segment_speeds=(0.0, 0.7, 0.0, 2.5, 9.0)),
        recipe(SceneSpec, n_points=400, n_classes=1, moving_class=0, segment_length=2,
               segment_speeds=(1.5, 0.0)),
        recipe(SceneSpec, n_points=500, n_classes=2, moving_class=1, segment_length=2,
               segment_speeds=(3.0, 0.0, 3.0, -3.0)),
        SceneSpec(n_points=300, segment_speeds=(0.0,)),
        SceneSpec(n_points=2000, image_width=512, image_height=64, segment_speeds=(0.0, 1.0)),
    ], ids=["speeds", "one-class", "two-classes", "static", "wide"])
    def test_images_equal_a_full_projection(self, spec):
        # Within 14 frames every moving profile carries some points past the 12 m wrap.
        frames = synth_sequence(spec, 14, seed=4)
        for pc, ri in frames:
            want = project_range_image(pc, spec.image_width, spec.image_height, spec.vfov)
            assert ri.tobytes() == want.tobytes()
            assert ri.dtype == np.float32 and not ri.flags.writeable

    def test_still_frames_share_arrays(self):
        spec = SceneSpec(n_points=200, segment_length=2, segment_speeds=(0.0, 1.0))
        frames = synth_sequence(spec, 6, seed=2)
        for t, ((prev, prev_ri), (pc, ri)) in enumerate(zip(frames, frames[1:]), start=1):
            still = (t // 2) % 2 == 0
            assert np.shares_memory(pc.xyz, prev.xyz) == still
            assert (ri is prev_ri) == still
            assert (pc is prev) == still and not pc.xyz.flags.writeable

    @pytest.mark.parametrize("kw", [dict(image_width=0), dict(image_height=0),
                                    dict(vfov=(10.0, -10.0)), dict(vfov=(5.0, 5.0))])
    def test_bad_image_settings_raise(self, kw):
        with pytest.raises(DomainError):
            synth_sequence(recipe(SceneSpec, n_points=50, **kw), 2, seed=0)
        with pytest.raises(DomainError):
            synth_sequence(recipe(SceneSpec, n_points=50, n_classes=1, moving_class=0, **kw), 2,
                           seed=0)

    @pytest.mark.parametrize("kw, n_frames", [({}, 0), (dict(image_width=0), 2),
                                              (dict(image_height=0), 2),
                                              (dict(vfov=(5.0, 5.0)), 2)])
    def test_frames_raise_at_the_call(self, kw, n_frames):
        with pytest.raises(DomainError):
            synth_frames(recipe(SceneSpec, n_points=50, **kw), n_frames, seed=0)

    def test_labels_and_bands(self):
        frames = synth_sequence(SceneSpec(n_points=300), 1, seed=0)
        pc = frames[0][0]
        assert set(np.unique(pc.labels)) == {0, 1, 2}
        # intensity bands are disjoint per class
        for cls, (lo, hi) in enumerate([(0.08, 0.12), (0.45, 0.55), (0.80, 0.90)]):
            vals = pc.intensity[pc.labels == cls]
            assert vals.min() >= lo and vals.max() <= hi


    def test_the_fields_are_the_settings_callers_vary(self):
        assert [f.name for f in fields(SceneSpec)] == [
            "n_points", "segment_length", "segment_speeds", "image_width", "image_height"]
        with pytest.raises(TypeError):
            SceneSpec(vfov=(-5.0, 60.0))
        # The rest of the recipe, read off an instance as before.
        spec = SceneSpec()
        assert (spec.n_classes, spec.moving_class, spec.wrap_extent, spec.vfov) == (
            3, 2, 12.0, (-5.0, 60.0))
        assert spec.class_bands == ((5.0, 7.0, -0.10, 0.10, 0.08, 0.12),
                                    (5.0, 7.0, 1.40, 1.60, 0.45, 0.55),
                                    (5.0, 7.0, 3.80, 4.20, 0.80, 0.90))


class TestRangesToGrayscale:
    def test_sequence_peak_maps_to_255_and_zero_stays_zero(self):
        a = np.array([[0.0, 5.0], [10.0, 2.5]], dtype=np.float32)
        b = np.array([[20.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        gray = ranges_to_grayscale([a, b])
        assert all(g.dtype == np.uint8 for g in gray)
        np.testing.assert_array_equal(gray[0], [[0, 64], [128, 32]])
        np.testing.assert_array_equal(gray[1], [[255, 0], [0, 0]])

    def test_all_zero_sequence_gives_zeros(self):
        gray = ranges_to_grayscale([np.zeros((2, 3), np.float32)] * 2)
        for g in gray:
            np.testing.assert_array_equal(g, np.zeros((2, 3), np.uint8))

    def test_empty_sequence(self):
        assert ranges_to_grayscale([]) == []


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(12, 20)).astype(np.uint8)
        write_pgm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), img)

    def test_uint8_bytes(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        write_pgm(tmp_path / "x.pgm", img)
        assert (tmp_path / "x.pgm").read_bytes() == b"P5\n3 2\n255\n" + img.tobytes()

    def test_integer_valued_values_written(self, tmp_path):
        img = np.array([[0, 255], [7, 128]])
        for arr in (img, img.astype(np.float64), img.astype(np.int16)):
            write_pgm(tmp_path / "x.pgm", arr)
            np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), img)

    @pytest.mark.parametrize("img", [
        np.array([[300, 0]]), np.array([[-1, 0]]), np.array([[0.0, 0.5], [1.0, 0.25]]),
        np.array([[np.nan]]), np.array([[np.inf]]), np.array([["a"]]),
    ], ids=["above-255", "negative", "unit-floats", "nan", "inf", "strings"])
    def test_values_outside_8_bit_rejected(self, tmp_path, img):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "x.pgm", img)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_grid_rejected(self, tmp_path, shape):
        with pytest.raises(ShapeError):
            write_pgm(tmp_path / "x.pgm", np.zeros(shape, np.uint8))
        assert not (tmp_path / "x.pgm").exists()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "bad.pgm")

    def test_truncated_raster(self, tmp_path):
        (tmp_path / "short.pgm").write_bytes(b"P5\n4 2\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(tmp_path / "short.pgm")

    def test_missing_header_field(self, tmp_path):
        (tmp_path / "nomax.pgm").write_bytes(b"P5\n4 2\n")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "nomax.pgm")

    def test_non_numeric_header_field(self, tmp_path):
        (tmp_path / "word.pgm").write_bytes(b"P5\nfour 2\n255\n" + bytes(8))
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "word.pgm")

    @pytest.mark.parametrize("dims", [b"0 8", b"8 0"])
    def test_zero_width_or_height(self, tmp_path, dims):
        (tmp_path / "empty.pgm").write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "empty.pgm")

    @pytest.mark.parametrize("n_bytes", [1, 5, 7])
    def test_label_partial_element_rejected(self, tmp_path, n_bytes):
        (tmp_path / "a.label").write_bytes(b"\x01" * n_bytes)
        with pytest.raises(FormatError):
            load_labels(tmp_path / "a.label")
