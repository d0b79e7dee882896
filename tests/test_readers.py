"""Every file reader either loads a damaged file or raises a `Lim3dError`.

Damage is a prefix of a valid file or the file with one byte changed; a
reader must never let a bare numpy, zipfile or memory error escape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lim3d import FormatError, Lim3dError, MiniSegNet, PointCloud
from lim3d.pointcloud import load_frame, load_labels, read_pgm, save_frame, save_labels, write_pgm
from lim3d.reflectivity import ReflecConfig
from lim3d.sampling import load_plan, save_plan
from lim3d.training import TOY_GRID, load_model, save_model


def _write_frame(path):
    save_frame(path, PointCloud(xyz=np.arange(15.0).reshape(5, 3), intensity=np.linspace(0, 1, 5)))


def _write_model(path):
    reflec = ReflecConfig(n_bins=2, bin_grids=((2, 4),))
    save_model(path, MiniSegNet(6, 3, widths=(4,), seed=0), TOY_GRID, reflec)


READERS = {
    "frame": (load_frame, _write_frame),
    "labels": (load_labels, lambda p: save_labels(p, np.array([0, 1, 2, 7], dtype=np.uint32))),
    "pgm": (read_pgm, lambda p: write_pgm(p, np.arange(24, dtype=np.uint8).reshape(4, 6))),
    "plan": (load_plan, lambda p: save_plan(p, {"00": [0, 3], "01": [2]})),
    "model": (load_model, _write_model),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    files = {}
    for name, (reader, write) in READERS.items():
        path = root / f"{name}.npz" if name == "model" else root / name
        write(path)
        reader(path)  # the undamaged file loads
        files[name] = path
    return files


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_lim3d_error(valid_files, name, data):
    body = bytearray(valid_files[name].read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        body = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(body) - 1), label="position")
        body[pos] ^= data.draw(st.integers(1, 255), label="xor")
    damaged = valid_files[name].with_name("damaged" + valid_files[name].suffix)
    damaged.write_bytes(bytes(body))
    try:
        READERS[name][0](damaged)
    except Lim3dError:
        pass


@pytest.mark.parametrize("body", [b"P58 4\n255\n" + bytes(32), b"P50 4 4\n255\n" + bytes(16)],
                         ids=["magic-runs-into-width", "magic-runs-into-zero"])
def test_pgm_magic_number_must_end_before_the_width(tmp_path, body):
    (tmp_path / "x.pgm").write_bytes(body)
    with pytest.raises(FormatError, match="P5 must be followed by whitespace"):
        read_pgm(tmp_path / "x.pgm")


def test_pgm_comment_may_follow_the_magic_number(tmp_path):
    (tmp_path / "x.pgm").write_bytes(b"P5# hand-made\n3 1\n255\n\x01\x02\x03")
    np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), [[1, 2, 3]])
