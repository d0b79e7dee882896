import argparse
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import peak_bytes
from lim3d.cli import _reflec_config, build_parser, main
from lim3d.network import MiniSegNet
from lim3d.pointcloud import (PointCloud, frame_path, image_path, label_path, load_frame,
                              load_labels, read_pgm, save_frame, save_labels, write_pgm)
from lim3d.reflectivity import ReflecConfig
from lim3d.sampling import load_plan
from lim3d.scene import SceneSpec, ranges_to_grayscale, synth_sequence
from lim3d.training import (TOY_GRID, ToyPipelineConfig, label_frame, load_model, prepare_frame,
                            save_model)
from lim3d.voxel import CylGridSpec, voxelize
from pass_reference import point_rows


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out-dir", str(root), "--sequences", "2", "--frames", "16",
               "--seed", "0", "--n-points", "250", "--segment-length", "8",
               "--speeds", "0,1"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """An untrained network saved with the toy grid and no histograms."""
    path = tmp_path_factory.mktemp("model") / "m.npz"
    save_model(path, MiniSegNet(4, 3, widths=(4, 4), seed=1), TOY_GRID, None)
    return path


# Every option of every subcommand; the global parser has only --help.
FLAGS = {
    "synth": {"--out-dir", "--sequences", "--frames", "--seed", "--n-points",
              "--segment-length", "--speeds", "--width", "--height"},
    "sample": {"--seq-dir", "--beta", "--target-fraction", "--subset-size", "--source",
               "--width", "--height", "--out"},
    "featurize": {"--in", "--config", "--out"},
    "pseudo": {"--in", "--model", "--percentile", "--per-class-keep", "--out"},
    "cost": {"--topology", "--mini-backbone", "--in-channels", "--n-classes",
             "--active-sites", "--out"},
    "train-toy": {"--labeled-fraction", "--stages", "--seed", "--steps", "--frames",
                  "--no-bank", "--save-model", "--report"},
}


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_flag_inventory():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert _options(parser) == set()
    assert {name: _options(p) for name, p in sub.choices.items()} == FLAGS
    assert sum(len(f) for f in FLAGS.values()) == 39


def test_defaults_read_the_values_they_restate(tmp_path):
    """Each subcommand parsed with only its required flags: a default that
    restates `synth`'s scene and sensor or the toy recipe equals it."""
    def parse(*argv):
        return build_parser().parse_args(list(argv))

    sensor = (SceneSpec.image_width, SceneSpec.image_height)
    synth = parse("synth", "--out-dir", "d")
    sample = parse("sample", "--seq-dir", "d", "--out", "p.json")
    assert (synth.width, synth.height) == (sample.width, sample.height) == sensor
    assert (synth.n_points, synth.segment_length) == (SceneSpec.n_points, SceneSpec.segment_length)
    assert tuple(float(s) for s in synth.speeds.split(",")) == SceneSpec.segment_speeds
    cfg = ToyPipelineConfig()
    pseudo = parse("pseudo", "--in", "f", "--model", "m", "--out", "o")
    assert (pseudo.percentile, pseudo.per_class_keep) == (cfg.percentile, cfg.per_class_keep)
    assert sample.subset_size == cfg.subset_size
    cost = parse("cost")
    assert (cost.in_channels, cost.n_classes) == (4 + cfg.reflec.feature_dim, cfg.scene.n_classes)
    train = parse("train-toy", "--report", "r.json")
    assert (train.labeled_fraction, train.frames) == (cfg.labeled_fraction, cfg.frames_per_sequence)
    assert train.seed == cfg.seed
    assert tuple(int(s) for s in train.stages.split(",")) == cfg.stages
    assert _reflec_config(parse("featurize", "--in", "f", "--out", "o").config) == ReflecConfig()
    (tmp_path / "c.json").write_text(json.dumps({"bin_grids": [[2, 4]]}))
    assert _reflec_config(str(tmp_path / "c.json")).n_bins == ReflecConfig().n_bins


class TestSynthAndSample:
    def test_layout(self, dataset):
        assert (dataset / "sequences" / "00" / "velodyne" / "000000.bin").exists()
        assert (dataset / "sequences" / "01" / "labels" / "000015.label").exists()
        assert (dataset / "sequences" / "00" / "image_2" / "000003.pgm").exists()

    def test_pgms_are_the_sequences_grayscale(self, dataset):
        spec = SceneSpec(n_points=250, segment_length=8, segment_speeds=(0.0, 1.0))
        for s, seq in enumerate(("00", "01")):
            frames = synth_sequence(spec, 16, seed=0, sequence_id=s)
            for t, img in enumerate(ranges_to_grayscale([ri for _, ri in frames])):
                np.testing.assert_array_equal(read_pgm(image_path(dataset, seq, t)), img)

    def test_a_sequence_is_synth_sequence_of_the_run_seed(self, tmp_path):
        """Sequence 01 of a run seeded 5 is `synth_sequence` at seed 5 and id 1."""
        root, ref = tmp_path / "cli", tmp_path / "ref"
        assert main(["synth", "--out-dir", str(root), "--sequences", "2", "--frames", "10",
                     "--seed", "5", "--n-points", "200"]) == 0
        frames = synth_sequence(SceneSpec(n_points=200), 10, 5, sequence_id=1)
        grays = ranges_to_grayscale([ri for _, ri in frames])
        paths = (frame_path, label_path, image_path)
        for path in paths:
            path(ref, "01", 0).parent.mkdir(parents=True)
        for t, ((pc, _), img) in enumerate(zip(frames, grays)):
            save_frame(frame_path(ref, "01", t), pc)
            save_labels(label_path(ref, "01", t), pc.labels)
            write_pgm(image_path(ref, "01", t), img)
            for path in paths:
                assert path(root, "01", t).read_bytes() == path(ref, "01", t).read_bytes()

    def test_beta_zero_selects_all(self, dataset, tmp_path):
        out = tmp_path / "plan.json"
        rc = main(["sample", "--seq-dir", str(dataset), "--beta", "0",
                   "--subset-size", "8", "--out", str(out)])
        assert rc == 0
        plan = load_plan(out)
        assert plan["00"] == list(range(16))
        assert plan["01"] == list(range(16))

    def test_redundancy_beta_prunes_static(self, dataset, tmp_path):
        out = tmp_path / "plan.json"
        rc = main(["sample", "--seq-dir", str(dataset), "--beta", "7.45",
                   "--subset-size", "8", "--out", str(out)])
        assert rc == 0
        plan = load_plan(out)
        static = [i for i in plan["00"] if i < 8]
        moving = [i for i in plan["00"] if i >= 8]
        assert len(moving) >= len(static)

    def test_range_source_works(self, dataset, tmp_path):
        """Both sources see `synth`'s sensor, so they pick the same frames."""
        plans = {}
        for source in ("gray", "range"):
            out = tmp_path / f"{source}.json"
            assert main(["sample", "--seq-dir", str(dataset), "--beta", "4.0",
                         "--subset-size", "8", "--source", source, "--out", str(out)]) == 0
            plans[source] = load_plan(out)
        assert set(plans["range"]) == {"00", "01"}
        assert plans["range"] == plans["gray"]

    def test_target_fraction_close(self, tmp_path):
        root = tmp_path / "big"
        assert main(["synth", "--out-dir", str(root), "--sequences", "1",
                     "--frames", "200", "--seed", "1", "--n-points", "200",
                     "--segment-length", "10", "--speeds", "0,0.05,0,0.1",
                     "--width", "64", "--height", "24"]) == 0
        out = tmp_path / "plan.json"
        rc = main(["sample", "--seq-dir", str(root), "--target-fraction", "0.10",
                   "--subset-size", "40", "--out", str(out)])
        assert rc == 0
        total = sum(len(v) for v in load_plan(out).values())
        assert abs(total - 20) <= 1

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_synth_empty_image_exits_2(self, tmp_path, flag):
        root = tmp_path / "out"
        assert main(["synth", "--out-dir", str(root), "--frames", "2", flag, "0"]) == 2
        assert not root.exists()

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_synth_without_points_exits_2(self, tmp_path, capsys, n):
        root = tmp_path / "out"
        assert main(["synth", "--out-dir", str(root), "--frames", "2", "--n-points", n]) == 2
        assert "n_points" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("speeds", ["0,inf", "nan", "1,-inf"])
    def test_synth_non_finite_speed_exits_2_and_writes_nothing(self, tmp_path, capsys, speeds):
        root = tmp_path / "out"
        root.mkdir()
        assert main(["synth", "--out-dir", str(root), "--frames", "12", "--speeds", speeds]) == 2
        assert "segment_speeds" in capsys.readouterr().err
        assert list(root.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_synth_without_sequences_exits_2(self, tmp_path, capsys, n):
        root = tmp_path / "out"
        assert main(["synth", "--out-dir", str(root), "--sequences", n, "--frames", "2"]) == 2
        assert "--sequences" in capsys.readouterr().err
        assert not root.exists()

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        rc = main(["sample", "--seq-dir", str(tmp_path / "nope"), "--beta", "0",
                   "--out", str(tmp_path / "p.json")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_both_beta_and_fraction_rejected(self, dataset, tmp_path):
        rc = main(["sample", "--seq-dir", str(dataset), "--beta", "1",
                   "--target-fraction", "0.5", "--out", str(tmp_path / "p.json")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--subset-size", "0", "--beta", "1"],
                                       ["--subset-size", "0", "--target-fraction", "0.5"],
                                       ["--beta", "-1"]])
    def test_bad_sampler_settings_exit_2_without_plan(self, dataset, tmp_path, flags):
        out = tmp_path / "p.json"
        assert main(["sample", "--seq-dir", str(dataset), *flags, "--out", str(out)]) == 2
        assert not out.exists()


def _synth(root, sequences, *flags):
    return main(["synth", "--out-dir", str(root), "--sequences", str(sequences), *flags])


class TestFrameIds:
    def test_plan_names_the_frames_on_disk(self, tmp_path):
        root = tmp_path / "gap"
        assert _synth(root, 1, "--frames", "16", "--n-points", "100") == 0
        for t in (0, 1):
            (root / "sequences" / "00" / "velodyne" / f"{t:06d}.bin").unlink()
        out = tmp_path / "plan.json"
        assert main(["sample", "--seq-dir", str(root), "--beta", "0", "--subset-size", "4",
                     "--out", str(out)]) == 0
        assert load_plan(out) == {"00": list(range(2, 16))}

    @pytest.mark.parametrize("flag", [["--beta", "1"], ["--target-fraction", "0.5"]])
    def test_empty_sequences_dir_exits_2_without_plan(self, tmp_path, capsys, flag):
        (tmp_path / "empty" / "sequences").mkdir(parents=True)
        out = tmp_path / "plan.json"
        assert main(["sample", "--seq-dir", str(tmp_path / "empty"), *flag,
                     "--out", str(out)]) == 2
        assert "no sequences under" in capsys.readouterr().err
        assert not out.exists()


class TestOneSequenceAtATime:
    """Peak traced memory does not grow with the number of sequences."""

    def test_synth(self, tmp_path):
        flags = ("--frames", "16", "--n-points", "2000", "--width", "64", "--height", "32")
        assert _synth(tmp_path / "warm-up", 1, "--frames", "2", "--n-points", "10") == 0
        one = peak_bytes(lambda: _synth(tmp_path / "one", 1, *flags))
        three = peak_bytes(lambda: _synth(tmp_path / "three", 3, *flags))
        assert image_path(tmp_path / "three", "02", 15).exists()
        assert three < 1.5 * one, f"{three / one:.2f}x the one-sequence peak"

    def test_sample(self, tmp_path):
        flags = ("--frames", "48", "--n-points", "50", "--width", "64", "--height", "32")
        peaks = {}
        for n in (1, 4):
            root = tmp_path / str(n)
            assert _synth(root, n, *flags) == 0
            args = ["sample", "--seq-dir", str(root), "--beta", "1", "--subset-size", "8",
                    "--out", str(tmp_path / f"{n}.json")]
            assert main(args) == 0  # warm-up
            peaks[n] = peak_bytes(lambda: main(args))
        assert peaks[4] < 1.5 * peaks[1], f"{peaks[4] / peaks[1]:.2f}x the one-sequence peak"


class TestFeaturize:
    def test_config_hash_covers_the_config_not_its_path(self, dataset, tmp_path):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        hashes = []
        for name, grids in (("a", [[2, 4]]), ("b", [[2, 4]]), ("c", [[2, 8]])):
            (tmp_path / name).mkdir()
            cfg = tmp_path / name / "reflec.json"
            cfg.write_text(json.dumps({"n_bins": 4, "bin_grids": grids}))
            out = tmp_path / name / "f.feat"
            assert main(["featurize", "--in", str(frame), "--config", str(cfg),
                         "--out", str(out)]) == 0
            meta = json.loads(Path(f"{out}.meta.json").read_text())
            hashes.append(meta["provenance"]["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_adds_thirty_channels(self, dataset, tmp_path):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "f.feat"
        assert main(["featurize", "--in", str(frame), "--out", str(out)]) == 0
        n_points = frame.stat().st_size // 16
        feats = np.fromfile(out, dtype="<f4").reshape(n_points, -1)
        assert feats.shape[1] == 30
        assert feats.min() >= 0.0 and feats.max() <= 1.0
        meta = json.loads((tmp_path / "f.feat.meta.json").read_text())
        assert meta["channels_added"] == 30
        assert meta["provenance"]["tool"] == "lim3d"

    def test_custom_config(self, dataset, tmp_path):
        cfg = tmp_path / "reflec.json"
        cfg.write_text(json.dumps({"n_bins": 4, "bin_grids": [[2, 4], [4, 8]]}))
        frame = dataset / "sequences" / "00" / "velodyne" / "000001.bin"
        out = tmp_path / "g.feat"
        assert main(["featurize", "--in", str(frame), "--config", str(cfg),
                     "--out", str(out)]) == 0
        n_points = frame.stat().st_size // 16
        assert np.fromfile(out, dtype="<f4").size == n_points * 8

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["featurize", "--in", str(tmp_path / "no.bin"),
                     "--out", str(tmp_path / "x.feat")]) == 2

    @pytest.mark.parametrize("config", [{"n_bins": 2.5, "bin_grids": [[2, 4]]},
                                        {"n_bins": True, "bin_grids": [[2, 4]]},
                                        {"n_bins": 4, "bin_grids": [[2, 4.5]]}])
    def test_non_integer_config_exits_2_without_output(self, dataset, tmp_path, capsys, config):
        cfg = tmp_path / "reflec.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "f.feat"
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        assert main(["featurize", "--in", str(frame), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("text", ["[1]", '{"bin_grids": 5}', '{"bin_grids": [4, 8]}',
                                      '{"n_bins": 4}', "{"],
                             ids=["list", "grids-not-list", "grid-not-pair", "no-grids",
                                  "not-json"])
    def test_malformed_config_file_exits_2_without_output(self, dataset, tmp_path, capsys,
                                                          text):
        cfg = tmp_path / "reflec.json"
        cfg.write_text(text)
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        assert main(["featurize", "--in", str(frame), "--config", str(cfg),
                     "--out", str(tmp_path / "f.feat")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "internal error" not in err
        assert list(tmp_path.iterdir()) == [cfg]


class TestPseudo:
    def test_without_model_exits_2_and_writes_nothing(self, dataset, tmp_path, capsys):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        with pytest.raises(SystemExit) as exc:
            main(["pseudo", "--in", str(frame), "--out", str(tmp_path / "p.label")])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_emits_labels_and_sidecar(self, dataset, model, tmp_path):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "p.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model), "--percentile", "80",
                     "--out", str(out)]) == 0
        labels = load_labels(out)
        n_points = frame.stat().st_size // 16
        assert labels.size == n_points
        meta = json.loads((tmp_path / "p.label.meta.json").read_text())
        assert meta["reliable_voxels"] + meta["unreliable_voxels"] == meta["n_voxels"]
        assert meta["unreliable_voxels"] > 0

    def test_percentile_zero_degenerate_all_reliable(self, dataset, model, tmp_path):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "p0.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model), "--percentile", "0",
                     "--per-class-keep", "1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "p0.label.meta.json").read_text())
        assert meta["unreliable_voxels"] == 0
        assert meta["reliable_voxels"] == meta["n_voxels"]
        labels = load_labels(out)
        inside = labels != 0xFFFFFFFF
        assert inside.sum() > 0

    def test_percentile_zero_runs_the_crb_filter(self, dataset, model, tmp_path):
        """Percentile 0 marks every voxel reliable, then `--per-class-keep`
        demotes the less confident ones as at any other percentile."""
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "p0k.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model), "--percentile", "0",
                     "--per-class-keep", "0.5", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "p0k.label.meta.json").read_text())
        n = meta["n_voxels"]
        assert n / 2 <= meta["reliable_voxels"] < n
        assert meta["reliable_voxels"] + meta["unreliable_voxels"] == n
        assert sum(v["unreliable"] for v in meta["per_class"].values()) == \
            meta["unreliable_voxels"]
        assert (load_labels(out) == 0xFFFFFFFF).any()

    def test_points_outside_the_grid_get_the_sentinel(self, dataset, model, tmp_path):
        """One label per input point: a point past rho_max or outside z_range
        gets 0xFFFFFFFF, every other point its voxel's pseudo-label."""
        pc = load_frame(dataset / "sequences" / "00" / "velodyne" / "000000.bin")
        # TOY_GRID spans rho < 20 and -1 <= z < 5.
        far = [[30.0, 0.0, 1.0], [0.0, -20.0, 2.0], [3.0, 4.0, 5.0], [-2.0, 1.0, -1.5]]
        pc = PointCloud(xyz=np.vstack([pc.xyz, far]), intensity=np.append(pc.intensity, [0.5] * 4))
        save_frame(tmp_path / "f.bin", pc)
        out = tmp_path / "f.label"
        assert main(["pseudo", "--in", str(tmp_path / "f.bin"), "--model", str(model),
                     "--out", str(out)]) == 0
        labels = load_labels(out)
        assert labels.size == len(pc)

        net, grid, reflec = load_model(model)
        frame = prepare_frame(pc, grid, reflec, net.kernel_size)
        pls, _ = label_frame(net, frame, ToyPipelineConfig.percentile,
                             ToyPipelineConfig.per_class_keep)
        rows = point_rows(pc, frame.svt)
        inside = rows >= 0
        assert not inside[-len(far):].any()
        np.testing.assert_array_equal(labels[~inside], 0xFFFFFFFF)
        want = pls.labels[rows[inside]]
        assert (want >= 0).any() and (want < 0).any()
        np.testing.assert_array_equal(labels[inside], np.where(want >= 0, want, 0xFFFFFFFF))

    def test_default_keep_is_the_recipes(self, dataset, model, tmp_path):
        """Default flags label a frame as the toy run's stage 2 does: the same
        bytes as the recipe's `--per-class-keep`, which differ from keeping all."""
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"

        def label_bytes(name, *flags):
            out = tmp_path / name
            assert main(["pseudo", "--in", str(frame), "--model", str(model), "--out", str(out),
                         *flags]) == 0
            return out.read_bytes()

        default = label_bytes("default.label")
        assert default == label_bytes("recipe.label", "--per-class-keep",
                                      str(ToyPipelineConfig.per_class_keep))
        assert default != label_bytes("all.label", "--per-class-keep", "1")

    def test_config_hash_covers_the_config_not_its_paths(self, dataset, tmp_path):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        net = MiniSegNet(4, 3, widths=(4, 4), seed=1)

        def config_hash(where, *flags, grid=TOY_GRID):
            where.mkdir(parents=True)
            shutil.copy(frame, where / "f.bin")
            save_model(where / "m.npz", net, grid, None)
            out = where / "p.label"
            assert main(["pseudo", "--in", str(where / "f.bin"), "--model",
                         str(where / "m.npz"), "--out", str(out), *flags]) == 0
            meta = json.loads(Path(f"{out}.meta.json").read_text())
            return meta["provenance"]["config_hash"]

        here = config_hash(tmp_path / "a")
        assert config_hash(tmp_path / "b" / "elsewhere") == here
        assert config_hash(tmp_path / "c", "--percentile", "60") != here
        assert config_hash(tmp_path / "d", grid=replace(TOY_GRID, rho_max=25.0)) != here

    @pytest.mark.parametrize("keep", ["0", "1.5", "-0.5"])
    def test_per_class_keep_outside_unit_interval_exits_2(self, dataset, model, tmp_path, keep):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        assert main(["pseudo", "--in", str(frame), "--model", str(model),
                     "--per-class-keep", keep, "--out", str(tmp_path / "k.label")]) == 2

    @pytest.mark.parametrize("keep", ["0", "1.5", "-0.5"])
    def test_per_class_keep_outside_unit_interval_exits_2_at_percentile_0(self, dataset, model,
                                                                         tmp_path, keep):
        """`--percentile 0` runs the CRB filter, whose flag is checked."""
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "k.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model), "--percentile", "0",
                     "--per-class-keep", keep, "--out", str(out)]) == 2
        assert not out.exists()


class TestCost:
    def test_mini_backbone_closed_form(self, tmp_path):
        out = tmp_path / "cost.json"
        assert main(["cost", "--mini-backbone", "--in-channels", "34",
                     "--n-classes", "3", "--active-sites", "500",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        hand = 0
        prev = 34
        for w in (16, 32, 64, 64):
            hand += prev * 27 + prev * w + w
            prev = w
        hand += 64 * 3 + 3
        assert payload["trainable_params"] == hand
        hand_ma = 0
        prev = 34
        for w in (16, 32, 64, 64):
            hand_ma += 500 * 27 * prev + 500 * prev * w
            prev = w
        hand_ma += 500 * 64 * 3
        assert payload["mult_adds"] == hand_ma

    def test_topology_file_and_ratios(self, tmp_path):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"layers": [
            {"kind": "separable", "in": 8, "out": 16, "kernel_size": 3, "bias": False},
            {"kind": "standard", "in": 16, "out": 16, "kernel_size": 3, "bias": False},
            {"kind": "pointwise", "in": 16, "out": 4, "bias": False},
        ]}))
        out = tmp_path / "cost.json"
        assert main(["cost", "--topology", str(topo), "--active-sites", "100",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        sep, std, pw = payload["per_layer"]
        assert sep["trainable_params"] == 8 * 27 + 8 * 16
        assert sep["params_ratio_vs_standard"] > 1
        assert std["trainable_params"] == 16 * 16 * 27
        assert pw["trainable_params"] == 16 * 4

    def test_empty_topology_zeros(self, tmp_path):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"layers": []}))
        out = tmp_path / "cost.json"
        assert main(["cost", "--topology", str(topo), "--active-sites", "100",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["trainable_params"] == 0 and payload["mult_adds"] == 0

    def test_zero_classes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert main(["cost", "--mini-backbone", "--n-classes", "0", "--out", str(out)]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layer", [
        {"kind": "separable", "in": 0, "out": 16},
        {"kind": "pointwise", "in": 16, "out": 0},
        {"kind": "standard", "in": 8, "out": 8, "kernel_size": 4},
        {"kind": "dense", "in": 8, "out": 8},
        {"kind": "separable", "in": 2.5, "out": 16},
        {"kind": "standard", "in": 8, "out": 8, "kernel_size": 3.0},
        {"kind": "pointwise", "in": 16, "out": True},
        {"kind": "pointwise", "in": 16, "out": 4, "bias": "no"},
    ])
    def test_layer_no_network_can_build_exits_2(self, tmp_path, capsys, layer):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"layers": [layer]}))
        out = tmp_path / "cost.json"
        assert main(["cost", "--topology", str(topo), "--out", str(out)]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", '{"layers": 5}', '{"layers": [[1, 2]]}',
                                      '{"layers": [{"kind": "pointwise", "in": 4}]}', "{}"],
                             ids=["list", "layers-not-list", "layer-not-object",
                                  "layer-without-out", "no-layers"])
    def test_malformed_topology_file_exits_2(self, tmp_path, capsys, text):
        topo = tmp_path / "topo.json"
        topo.write_text(text)
        out = tmp_path / "cost.json"
        assert main(["cost", "--topology", str(topo), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(topo) in err and "internal error" not in err
        assert not out.exists()


class TestTrainToy:
    def test_same_seed_identical_reports(self, tmp_path):
        args = ["train-toy", "--labeled-fraction", "0.5", "--stages", "1,2,3",
                "--seed", "11", "--steps", "10", "--frames", "12"]
        assert main(args + ["--report", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--report", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_report_contents_and_model(self, tmp_path):
        rc = main(["train-toy", "--labeled-fraction", "1.0", "--stages", "1",
                   "--seed", "2", "--steps", "8", "--frames", "8",
                   "--report", str(tmp_path / "r.json"),
                   "--save-model", str(tmp_path / "m.npz")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["provenance"]["tool"] == "lim3d"
        assert "train" in report["stages"]
        assert report["cost"]["trainable_params"] > 0
        flat = np.load(tmp_path / "m.npz")["flat"]
        assert flat.ndim == 1 and flat.size == report["cost"]["trainable_params"]

    @pytest.mark.parametrize("model_classes", [3, 5])
    def test_pseudo_counts_classes_of_the_model(self, dataset, tmp_path, model_classes):
        net = MiniSegNet(4, model_classes, widths=(4, 4), kernel_size=3, seed=1)
        model = tmp_path / "m.npz"
        save_model(model, net, TOY_GRID, None)
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "m.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model),
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "m.label.meta.json").read_text())
        assert set(meta["per_class"]) == {str(c) for c in range(model_classes)}
        assert sum(v["reliable"] + v["unreliable"]
                   for v in meta["per_class"].values()) == meta["n_voxels"]

    def test_saved_model_loads_in_pseudo(self, dataset, tmp_path):
        model = tmp_path / "m.npz"
        assert main(["train-toy", "--labeled-fraction", "1.0", "--stages", "1",
                     "--seed", "2", "--steps", "6", "--frames", "8",
                     "--report", str(tmp_path / "r.json"),
                     "--save-model", str(model)]) == 0
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        out = tmp_path / "m.label"
        assert main(["pseudo", "--in", str(frame), "--model", str(model),
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "m.label.meta.json").read_text())
        assert meta["n_voxels"] > 0
        assert meta["reliable_voxels"] + meta["unreliable_voxels"] == meta["n_voxels"]


class TestPseudoModelContract:
    """`pseudo --model` voxelizes on the grid stored in the model file."""

    @staticmethod
    def _pseudo(dataset, out, *flags):
        frame = dataset / "sequences" / "00" / "velodyne" / "000000.bin"
        return main(["pseudo", "--in", str(frame), "--out", str(out), *flags])

    def test_model_grid_is_used(self, dataset, tmp_path):
        small = CylGridSpec(n_rho=4, n_phi=5, n_z=3, rho_max=20.0, z_range=(-1.0, 5.0))
        model = tmp_path / "small.npz"
        save_model(model, MiniSegNet(4, 3, widths=(4, 4), seed=1), small, None)
        out = tmp_path / "m.label"
        assert self._pseudo(dataset, out, "--model", str(model)) == 0
        n_voxels = json.loads(Path(f"{out}.meta.json").read_text())["n_voxels"]
        frame = load_frame(dataset / "sequences" / "00" / "velodyne" / "000000.bin")
        assert n_voxels == voxelize(frame, small).n_active <= small.n_cells

    @pytest.mark.parametrize("damage", ["truncated", "not_zip", "key_missing", "nan_rho_max",
                                        "inf_z_range", "feature_width"])
    def test_malformed_model_exits_2(self, dataset, model, tmp_path, capsys, damage):
        bad = tmp_path / "bad.npz"
        if damage == "truncated":
            bad.write_bytes(model.read_bytes()[:-40])
        elif damage == "not_zip":
            bad.write_bytes(b"not a model")
        else:
            with np.load(model) as npz:
                saved = dict(npz)
            if damage == "key_missing":
                del saved["grid_bins"]
            elif damage == "nan_rho_max":
                saved["grid_rho_max"] = np.array(np.nan)
            elif damage == "feature_width":  # 4 + 2 x 5 histogram bins, not 4 inputs
                saved["reflec_bins"] = np.array(5)
                saved["reflec_grids"] = np.array([[4, 8], [8, 16]])
            else:
                saved["grid_z_range"] = np.array([-1.0, np.inf])
            np.savez(bad, **saved)
        assert self._pseudo(dataset, tmp_path / "x.label", "--model", str(bad)) == 2
        assert "bad.npz" in capsys.readouterr().err
