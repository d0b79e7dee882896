"""Command-line entry point.

Subcommands: ``synth`` (generate labeled synthetic sequences), ``sample``
(redundancy-aware frame selection), ``featurize`` (reflectivity histogram
features), ``pseudo`` (a trained model's entropy-split pseudo-labels for
one frame), ``cost`` (parameter and multiply-add accounting) and
``train-toy`` (the staged semi-supervised loop on synthetic data).

Exit codes: 0 on success, 2 on validation problems (bad flags, missing or
malformed inputs), 3 on internal errors. Outputs of featurize, pseudo and
train-toy carry a provenance block (tool version, config hash, and the
seed, null where the command takes none); bulk binary outputs get it as a
``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FormatError, Lim3dError
from .network import mini_backbone_topology, topology_cost, LayerSpec
from .pointcloud import (UNRELIABLE_LABEL, frame_path, image_path, label_path,
                         list_sequence_frames, load_frame, read_pgm, save_frame, save_labels,
                         write_pgm)
from .reflectivity import ReflecConfig, coarse_histograms, normalize_reflectivity, reflectivity
from .sampling import calibrate_beta, plan, save_plan
from .scene import SceneSpec, project_range_image, ranges_to_grayscale, synth_frames
from .training import ToyPipelineConfig, label_frame, load_model, prepare_frame, run_toy_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

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


def _json_list(path: str, key: str, item_type: type, what: str) -> tuple[dict, list]:
    """The JSON object in file `path` and its list under `key`, whose items
    are `item_type` (`what`); anything else raises `FormatError`."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    items = raw.get(key) if isinstance(raw, dict) else None
    if not isinstance(items, list) or not all(isinstance(item, item_type) for item in items):
        raise FormatError(f"{path}: expected a JSON object whose {key!r} is a list of {what}")
    return raw, items


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.sequences < 1:
        raise DomainError("--sequences must be >= 1")
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
        # Raises on bad settings before the first directory is made.
        frames = synth_frames(spec, args.frames, args.seed, sequence_id=s)
        for p in (frame_path(root, seq, 0), label_path(root, seq, 0), image_path(root, seq, 0)):
            p.parent.mkdir(parents=True, exist_ok=True)
        # Each frame is written as it is made. Only the range images are kept,
        # for the sequence-wide grayscale scale; still frames share one.
        ranges = []
        for t, (pc, ri) in enumerate(frames):
            if t == 0:
                labels = pc.labels.astype(np.uint32)  # every frame shares one label array
            save_frame(frame_path(root, seq, t), pc)
            save_labels(label_path(root, seq, t), labels)
            ranges.append(ri)
        for t, img in enumerate(ranges_to_grayscale(ranges)):
            write_pgm(image_path(root, seq, t), img)
    print(f"wrote {args.sequences} sequence(s) x {args.frames} frame(s) under {root}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SequenceImages:
    """Each sequence's grayscale images, loaded only when iteration reaches
    that sequence, so one pass holds one sequence at a time. Every pass
    loads the files again."""

    root: Path
    names: list[str]
    frame_ids: list[list[int]]
    source: str
    width: int
    height: int

    def __iter__(self):
        return map(self.load, self.names, self.frame_ids)

    def load(self, seq: str, frames: list[int]) -> list[np.ndarray]:
        if self.source == "gray":
            return [read_pgm(image_path(self.root, seq, t)) for t in frames]
        ranges = [project_range_image(load_frame(frame_path(self.root, seq, t)),
                                      width=self.width, height=self.height) for t in frames]
        return ranges_to_grayscale(ranges)


def cmd_sample(args) -> int:
    root = Path(args.seq_dir)
    seq_root = root / "sequences"
    if not seq_root.is_dir():
        raise Lim3dError(f"sequence directory not found: {seq_root}")
    if (args.beta is None) == (args.target_fraction is None):
        raise DomainError("pass exactly one of --beta or --target-fraction")
    names = sorted(p.name for p in seq_root.iterdir() if p.is_dir())
    if not names:
        raise Lim3dError(f"no sequences under {seq_root}")
    frame_ids = [list_sequence_frames(root, name) for name in names]
    for name, ids in zip(names, frame_ids):
        if not ids:
            raise Lim3dError(f"no frames under {seq_root}/{name}/velodyne")
    sequences = _SequenceImages(root, names, frame_ids, args.source, args.width, args.height)
    if args.target_fraction is not None:
        beta, result = calibrate_beta(sequences, args.subset_size, args.target_fraction)
        print(f"calibrated beta = {beta:.6f}")
    else:
        result = plan(sequences, args.subset_size, args.beta)
    # The sampler picks list positions; a plan names the frames on disk.
    chosen = {names[i]: [frame_ids[i][j] for j in idx] for i, idx in result.entries.items()}
    save_plan(args.out, chosen)
    total = sum(len(ids) for ids in frame_ids)
    print(f"selected {result.total()} of {total} frames -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def _reflec_config(path: str | None) -> ReflecConfig:
    if path is None:
        return ReflecConfig()
    raw, grids = _json_list(path, "bin_grids", list, "[rho, phi] pairs")
    return ReflecConfig(n_bins=raw.get("n_bins", ReflecConfig.n_bins),
                        bin_grids=tuple(map(tuple, grids)))


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

    # Row n_voxels (outside the grid) picks the appended -1, saved as UNRELIABLE_LABEL.
    save_labels(args.out, np.append(pls.labels, -1)[svt.point_rows])

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
    _, layers = _json_list(path, "layers", dict, "layer objects")
    for i, item in enumerate(layers):
        if missing := sorted({"kind", "in", "out"} - item.keys()):
            raise FormatError(f"{path}: layer {i} lacks {', '.join(missing)}")
    return tuple(LayerSpec(item["kind"], item["in"], item["out"],
                           item.get("kernel_size", 1 if item["kind"] == "pointwise" else 3),
                           item.get("bias", True)) for item in layers)


def cmd_cost(args) -> int:
    if (args.topology is None) == (not args.mini_backbone):
        raise DomainError("pass exactly one of --topology or --mini-backbone")
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
    overrides = {"lambda_c": 0.0} if args.no_bank else {}
    if args.steps is not None:
        overrides.update(steps_stage1=args.steps, steps_stage3=args.steps)
    cfg = ToyPipelineConfig(
        labeled_fraction=args.labeled_fraction,
        stages=stages,
        seed=args.seed,
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
    p.add_argument("--n-points", type=int, default=SceneSpec.n_points)
    p.add_argument("--segment-length", type=int, default=SceneSpec.segment_length)
    p.add_argument("--speeds", default=",".join(map(str, SceneSpec.segment_speeds)))
    p.add_argument("--width", type=int, default=SceneSpec.image_width)
    p.add_argument("--height", type=int, default=SceneSpec.image_height)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="select diverse frames from sequences")
    p.add_argument("--seq-dir", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--target-fraction", type=float, default=None)
    p.add_argument("--subset-size", type=int, default=ToyPipelineConfig.subset_size)
    p.add_argument("--source", choices=("gray", "range"), default="gray")
    p.add_argument("--width", type=int, default=SceneSpec.image_width)
    p.add_argument("--height", type=int, default=SceneSpec.image_height)
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
    p.add_argument("--percentile", type=float, default=ToyPipelineConfig.percentile)
    p.add_argument("--per-class-keep", type=float, default=ToyPipelineConfig.per_class_keep)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("cost", help="parameter and multiply-add accounting")
    p.add_argument("--topology", default=None, help="JSON topology file")
    p.add_argument("--mini-backbone", action="store_true")
    # The toy model's input: (dx, dy, dz, intensity) and its histograms.
    p.add_argument("--in-channels", type=int, default=4 + ToyPipelineConfig.reflec.feature_dim)
    p.add_argument("--n-classes", type=int, default=ToyPipelineConfig.scene.n_classes)
    p.add_argument("--active-sites", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("train-toy", help="staged semi-supervised run on synthetic data")
    p.add_argument("--labeled-fraction", type=float, default=ToyPipelineConfig.labeled_fraction)
    p.add_argument("--stages", default=",".join(map(str, ToyPipelineConfig.stages)))
    p.add_argument("--seed", type=int, default=ToyPipelineConfig.seed)
    p.add_argument("--steps", type=int, default=None,
                   help="override both training stages' step counts")
    p.add_argument("--frames", type=int, default=ToyPipelineConfig.frames_per_sequence)
    p.add_argument("--no-bank", action="store_true", help="set the contrastive weight to 0")
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
