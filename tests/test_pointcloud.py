import numpy as np
import pytest

from lim3d import (DomainError, FormatError, PointCloud, SceneSpec,
                   ValidationError, load_frame, project_range_image,
                   range_to_grayscale, read_pgm, save_frame, synth_sequence,
                   write_pgm)
from lim3d.pointcloud import load_labels, save_labels


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


class TestRangeProjection:
    def test_single_point_center_pixel(self):
        pc = PointCloud(xyz=[[1.0, 0.0, 0.0]], intensity=[0.5])
        ri = project_range_image(pc, width=64, height=32, vfov=(-25.0, 25.0))
        nonzero = np.argwhere(ri.values > 0)
        assert nonzero.shape == (1, 3) or nonzero.shape == (1, 2)
        row, col = nonzero[0][:2]
        assert (row, col) == (16, 32)
        assert ri.values[row, col] == pytest.approx(1.0)

    def test_empty_cloud_all_zero(self):
        pc = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
        ri = project_range_image(pc, width=8, height=4, vfov=(-10, 10))
        assert not ri.values.any()

    def test_nearest_point_wins(self):
        pc = PointCloud(xyz=[[5.0, 0.0, 0.0], [3.0, 0.0, 0.0]], intensity=[0.1, 0.2])
        ri = project_range_image(pc, width=16, height=8, vfov=(-10, 10))
        assert ri.values.max() == pytest.approx(3.0)
        assert np.count_nonzero(ri.values) == 1

    def test_pixels_never_exceed_points(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            pc = PointCloud(xyz=rng.normal(scale=5.0, size=(n, 3)),
                            intensity=rng.uniform(size=n))
            ri = project_range_image(pc, width=32, height=16, vfov=(-30, 30))
            assert np.count_nonzero(ri.values) <= n

    def test_bad_vfov(self):
        pc = PointCloud(xyz=[[1.0, 0, 0]], intensity=[0.5])
        with pytest.raises(DomainError):
            project_range_image(pc, width=8, height=8, vfov=(10.0, -10.0))


class TestSynthSequence:
    def test_deterministic(self):
        spec = SceneSpec(n_points=100)
        a = synth_sequence(spec, 4, seed=9)
        b = synth_sequence(spec, 4, seed=9)
        for (pa, ra), (pb, rb) in zip(a, b):
            np.testing.assert_array_equal(pa.xyz, pb.xyz)
            np.testing.assert_array_equal(ra.values, rb.values)

    def test_static_profile_identical_frames(self):
        spec = SceneSpec(n_points=200, segment_speeds=(0.0,))
        frames = synth_sequence(spec, 5, seed=1)
        for _, ri in frames[1:]:
            np.testing.assert_array_equal(ri.values, frames[0][1].values)

    def test_moving_profile_changes_images(self):
        spec = SceneSpec(n_points=200, segment_speeds=(1.0,), segment_length=4)
        frames = synth_sequence(spec, 5, seed=1)
        for (_, prev), (_, cur) in zip(frames, frames[1:]):
            assert np.any(prev.values != cur.values)

    def test_labels_and_bands(self):
        frames = synth_sequence(SceneSpec(n_points=300), 1, seed=0)
        pc = frames[0][0]
        assert set(np.unique(pc.labels)) == {0, 1, 2}
        # intensity bands are disjoint per class
        for cls, (lo, hi) in enumerate([(0.08, 0.12), (0.45, 0.55), (0.80, 0.90)]):
            vals = pc.intensity[pc.labels == cls]
            assert vals.min() >= lo and vals.max() <= hi


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(12, 20)).astype(np.uint8)
        write_pgm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), img)

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

    def test_range_to_grayscale(self):
        ri_values = np.array([[0.0, 5.0], [10.0, 20.0]], dtype=np.float32)
        from lim3d import RangeImage
        gray = range_to_grayscale(RangeImage(width=2, height=2, values=ri_values), max_range=10.0)
        np.testing.assert_array_equal(gray, [[0, 128], [255, 255]])

    @pytest.mark.parametrize("n_bytes", [1, 5, 7])
    def test_label_partial_element_rejected(self, tmp_path, n_bytes):
        (tmp_path / "a.label").write_bytes(b"\x01" * n_bytes)
        with pytest.raises(FormatError):
            load_labels(tmp_path / "a.label")
