"""Command-line entry point.

Subcommands: ``synth`` (generate labeled synthetic sequences), ``sample``
(redundancy-aware frame selection), ``featurize`` (reflectivity histogram
features), ``pseudo`` (a trained model's entropy-split pseudo-labels for
one frame), ``cost`` (parameter and multiply-add accounting) and
``train-toy`` (the staged semi-supervised loop on synthetic data).

Exit codes: 0 on success, 2 on validation problems (bad flags, missing or
malformed inputs), 3 on internal errors. ``LIM3D_THREADS`` sets the
sampler's worker threads (default: the machine's CPU count). Outputs of
featurize/pseudo/train-toy carry a provenance block (tool version, config
hash, and the seed, null where the command takes none); bulk binary outputs
get it as a ``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import Lim3dError
from .network import mini_backbone_topology, topology_cost, LayerSpec
from .pointcloud import (SceneSpec, frame_path, image_path, label_path,
                         list_sequence_frames, load_frame, project_range_image,
                         ranges_to_grayscale, read_pgm, save_frame, save_labels,
                         synth_sequence, write_pgm)
from .reflectivity import ReflecConfig, coarse_histograms, normalize_reflectivity, reflectivity
from .sampling import calibrate_beta, plan, save_plan
from .training import ToyPipelineConfig, label_frame, load_model, prepare_frame, run_toy_pipeline
from .voxel import point_rows

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

UNRELIABLE_LABEL = 0xFFFFFFFF  # sentinel for voxels without a reliable label


# Paths stay out of the hash; `extra` adds the settings read from input files.
_HASH_EXCLUDED = {"func", "infile", "model", "config", "report", "out", "save_model", "out_dir"}


def _provenance(args, extra: dict | None = None) -> dict:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _HASH_EXCLUDED}
    if extra:
        payload.update(extra)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    return {
        "tool": "lim3d",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config_hash": digest[:16],
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SceneSpec(
        n_points=args.n_points,
        segment_length=args.segment_length,
        segment_speeds=tuple(float(s) for s in args.speeds.split(",")),
        image_width=args.width,
        image_height=args.height,
    )
    root = Path(args.out_dir)
    for s in range(args.sequences):
        seq = f"{s:02d}"
        frames = synth_sequence(spec, args.frames, args.seed + 1000 * s, sequence_id=s)
        gray = ranges_to_grayscale([ri for _, ri in frames])
        for t, ((pc, _), img) in enumerate(zip(frames, gray)):
            for p in (frame_path(root, seq, t), label_path(root, seq, t), image_path(root, seq, t)):
                p.parent.mkdir(parents=True, exist_ok=True)
            save_frame(frame_path(root, seq, t), pc)
            save_labels(label_path(root, seq, t), pc.labels.astype(np.uint32))
            write_pgm(image_path(root, seq, t), img)
    print(f"wrote {args.sequences} sequence(s) x {args.frames} frame(s) under {root}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _load_sequence_images(root: Path, seq: str, source: str,
                          width: int, height: int) -> list[np.ndarray]:
    frames = list_sequence_frames(root, seq)
    if not frames:
        raise Lim3dError(f"no frames under {root}/sequences/{seq}/velodyne")
    if source == "gray":
        return [read_pgm(image_path(root, seq, t)) for t in frames]
    ranges = [project_range_image(load_frame(frame_path(root, seq, t)), width=width, height=height)
              for t in frames]
    return ranges_to_grayscale(ranges)


def cmd_sample(args) -> int:
    root = Path(args.seq_dir)
    seq_root = root / "sequences"
    if not seq_root.is_dir():
        print(f"error: sequence directory not found: {seq_root}", file=sys.stderr)
        return EXIT_VALIDATION
    if (args.beta is None) == (args.target_fraction is None):
        print("error: pass exactly one of --beta or --target-fraction", file=sys.stderr)
        return EXIT_VALIDATION
    names = sorted(p.name for p in seq_root.iterdir() if p.is_dir())
    sequences = [
        _load_sequence_images(root, name, args.source, args.width, args.height)
        for name in names
    ]
    threads = max(1, int(os.environ.get("LIM3D_THREADS", os.cpu_count() or 1)))
    if args.target_fraction is not None:
        beta, result = calibrate_beta(sequences, args.subset_size, args.target_fraction,
                                      n_threads=threads)
        print(f"calibrated beta = {beta:.6f}")
    else:
        result = plan(sequences, args.subset_size, args.beta, n_threads=threads)
    save_plan(args.out, result, keys={i: n for i, n in enumerate(names)})
    print(f"selected {result.total()} of {sum(len(s) for s in sequences)} frames -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def _reflec_config(path: str | None) -> ReflecConfig:
    if path is None:
        return ReflecConfig()
    with open(path) as f:
        raw = json.load(f)
    return ReflecConfig(n_bins=int(raw.get("n_bins", 10)),
                        bin_grids=tuple(tuple(int(v) for v in g) for g in raw["bin_grids"]))


def cmd_featurize(args) -> int:
    cfg = _reflec_config(args.config)
    pc = load_frame(args.infile)
    feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), cfg)
    feats.astype("<f4").tofile(args.out)
    _write_json(args.out + ".meta.json", {
        "provenance": _provenance(args, {"n_bins": cfg.n_bins, "bin_grids": cfg.bin_grids}),
        "n_points": len(pc),
        "channels_added": cfg.feature_dim,
        "layout": "little-endian float32, per point, histogram scales concatenated",
    })
    print(f"wrote {len(pc)} x {cfg.feature_dim} features -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pseudo
# ---------------------------------------------------------------------------


def cmd_pseudo(args) -> int:
    pc = load_frame(args.infile)
    net, grid, reflec = load_model(args.model)
    frame = prepare_frame(pc, grid, reflec, net.kernel_size)
    svt = frame.svt
    pls, probs = label_frame(net, frame, args.percentile, args.per_class_keep)

    # A point outside every voxel has row -1, which picks the appended -1.
    point_labels = np.append(pls.labels, -1)[point_rows(pc, svt)]
    save_labels(args.out, np.where(point_labels >= 0, point_labels, UNRELIABLE_LABEL))

    reliable = pls.labels >= 0
    reliable_counts = np.bincount(pls.labels[reliable], minlength=net.n_classes)
    unreliable_counts = np.bincount(probs.argmax(axis=1)[~reliable], minlength=net.n_classes)
    counts = {str(c): {"reliable": int(reliable_counts[c]), "unreliable": int(unreliable_counts[c])}
              for c in range(net.n_classes)}
    n_reliable = int(reliable.sum())
    n_unreliable = svt.n_active - n_reliable
    _write_json(args.out + ".meta.json", {
        "provenance": _provenance(args, {"grid": asdict(grid)}),
        "n_points": len(pc),
        "n_voxels": svt.n_active,
        "reliable_voxels": n_reliable,
        "unreliable_voxels": n_unreliable,
        "per_class": counts,
        "unreliable_sentinel": UNRELIABLE_LABEL,
    })
    print(f"{n_reliable} reliable / {n_unreliable} unreliable voxels -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def _topology_from_file(path: str) -> tuple[LayerSpec, ...]:
    with open(path) as f:
        raw = json.load(f)
    layers = []
    for item in raw["layers"]:
        layers.append(LayerSpec(
            kind=item["kind"],
            in_channels=int(item["in"]),
            out_channels=int(item["out"]),
            kernel_size=int(item.get("kernel_size", 3 if item["kind"] != "pointwise" else 1)),
            bias=bool(item.get("bias", True)),
        ))
    return tuple(layers)


def cmd_cost(args) -> int:
    if (args.topology is None) == (not args.mini_backbone):
        print("error: pass exactly one of --topology or --mini-backbone", file=sys.stderr)
        return EXIT_VALIDATION
    if args.mini_backbone:
        layers = mini_backbone_topology(args.in_channels, args.n_classes)
    else:
        layers = _topology_from_file(args.topology)
    rows, totals = topology_cost(layers, args.active_sites)
    payload = {
        "active_sites": args.active_sites,
        "per_layer": rows,
        "trainable_params": totals.trainable_params,
        "mult_adds": totals.mult_adds,
    }
    if args.out:
        _write_json(args.out, payload)
        print(f"params={totals.trainable_params} mult_adds={totals.mult_adds} -> {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------


def cmd_train_toy(args) -> int:
    stages = tuple(int(s) for s in args.stages.split(","))
    overrides = {}
    if args.steps is not None:
        overrides.update(steps_stage1=args.steps, steps_stage3=args.steps)
    cfg = ToyPipelineConfig(
        labeled_fraction=args.labeled_fraction,
        stages=stages,
        seed=args.seed,
        use_bank=not args.no_bank,
        frames_per_sequence=args.frames,
        **overrides,
    )
    report = run_toy_pipeline(cfg, model_path=args.save_model)
    report["provenance"] = _provenance(args)
    _write_json(args.report, report)
    print(f"miou={report['metrics']['miou']} -> {args.report}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lim3d", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sequences", type=int, default=1)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-points", type=int, default=600)
    p.add_argument("--segment-length", type=int, default=8)
    p.add_argument("--speeds", default="0,1")
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=32)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="select diverse frames from sequences")
    p.add_argument("--seq-dir", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--target-fraction", type=float, default=None)
    p.add_argument("--subset-size", type=int, default=10)
    p.add_argument("--source", choices=("gray", "range"), default="gray")
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("featurize", help="append reflectivity histogram features")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", default=None, help="JSON with n_bins and bin_grids")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("pseudo", help="emit entropy-split pseudo-labels for a frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True,
                   help="model file from train-toy --save-model; its grid, classes and "
                        "features are used")
    p.add_argument("--percentile", type=float, default=80.0)
    p.add_argument("--per-class-keep", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("cost", help="parameter and multiply-add accounting")
    p.add_argument("--topology", default=None, help="JSON topology file")
    p.add_argument("--mini-backbone", action="store_true")
    p.add_argument("--in-channels", type=int, default=34)
    p.add_argument("--n-classes", type=int, default=3)
    p.add_argument("--active-sites", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("train-toy", help="staged semi-supervised run on synthetic data")
    p.add_argument("--labeled-fraction", type=float, default=1.0)
    p.add_argument("--stages", default="1,2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="override both training stages' step counts")
    p.add_argument("--frames", type=int, default=24)
    p.add_argument("--no-bank", action="store_true")
    p.add_argument("--save-model", default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_train_toy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Lim3dError, FileNotFoundError, NotADirectoryError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
