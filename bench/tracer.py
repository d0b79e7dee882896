"""Span tracing of lim3d's layers from outside the package.

`Tracer.installed()` rebinds the names that callers look up -- module
functions in every loaded ``lim3d`` module (and in any extra namespace
given) that hold the original object, plus a few methods on their classes
-- to wrappers that record a span per call, and restores every binding on
exit. Spans live in memory as ``[name, start, end, parent]`` records and
are written out with `write_jsonl` when the run ends.

A span's parent is the innermost open span on its own thread. A span that
opens on a worker thread with nothing open there takes the innermost span
open on the installing thread, so the sampler's pooled SSIM calls hang
under the ``frame_redundancies`` call that submitted them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, function). Every binding of the function object in a
# loaded lim3d module is replaced, so `lim3d.network.apply_spatial` and
# `lim3d.sparseconv.apply_spatial` both record.
FUNCTIONS = (
    ("sparseconv.build_rulebook", "lim3d.sparseconv", "build_rulebook"),
    ("sparseconv.apply_spatial", "lim3d.sparseconv", "apply_spatial"),
    ("sparseconv.apply_pointwise", "lim3d.sparseconv", "apply_pointwise"),
    ("voxel.voxelize", "lim3d.voxel", "voxelize"),
    ("reflectivity.coarse_histograms", "lim3d.reflectivity", "coarse_histograms"),
    ("losses.lovasz_softmax", "lim3d.losses", "lovasz_softmax"),
    ("losses.kl_consistency", "lim3d.losses", "kl_consistency"),
    ("pseudolabel.entropy_partition", "lim3d.pseudolabel", "entropy_partition"),
    ("pseudolabel.crb_select", "lim3d.pseudolabel", "crb_select"),
    ("pseudolabel.bank_push_negatives", "lim3d.pseudolabel", "bank_push_negatives"),
    ("pseudolabel.build_anchor_set", "lim3d.pseudolabel", "build_anchor_set"),
    ("pseudolabel.infonce_loss", "lim3d.pseudolabel", "infonce_loss"),
    ("training.ema_update", "lim3d.training", "ema_update"),
    ("training.run_toy_pipeline", "lim3d.training", "run_toy_pipeline"),
    ("ssim.ssim", "lim3d.ssim", "ssim"),
    ("sampling.frame_redundancies", "lim3d.sampling", "frame_redundancies"),
    ("sampling.calibrate_beta", "lim3d.sampling", "calibrate_beta"),
    ("sampling.plan_from_redundancies", "lim3d.sampling", "plan_from_redundancies"),
    ("pointcloud.read_pgm", "lim3d.pointcloud", "read_pgm"),
    ("cli.cmd_sample", "lim3d.cli", "cmd_sample"),
)

# (span name, module, class, method).
METHODS = (
    ("autodiff.backward", "lim3d.autodiff", "Tensor", "backward"),
    ("network.forward", "lim3d.network", "MiniSegNet", "forward"),
    ("network.predict", "lim3d.network", "MiniSegNet", "predict"),
    ("training.sgd_step", "lim3d.training", "SGD", "step"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _on_rulebook(tr, args, kwargs, rb):
    tr.count("rulebooks")
    tr.count("rulebook_sites", rb.n_sites)
    tr.count("rulebook_pairs", rb.n_pairs)
    tr.rulebooks.append((rb.n_sites, rb.n_pairs))


def _on_spatial(tr, args, kwargs, out):
    rb = _arg(args, kwargs, 1, "rulebook")
    kernel = _arg(args, kwargs, 2, "kernel")
    per_pair = kernel.in_channels * (kernel.out_channels if kernel.kind == "standard" else 1)
    tr.count("mult_adds_executed", rb.n_pairs * per_pair)


def _on_pointwise(tr, args, kwargs, out):
    kernel = _arg(args, kwargs, 1, "kernel")
    tr.count("mult_adds_executed", out.shape[0] * kernel.in_channels * kernel.out_channels)


def _on_forward(tr, args, kwargs, out):
    tr.topology = args[0].topology


def _on_voxelize(tr, args, kwargs, svt):
    tr.count("voxelize_sites", svt.n_active)


def _on_crb(tr, args, kwargs, pls):
    tr.count("reliable_voxels", len(pls.reliable))
    tr.count("partitioned_voxels", len(pls.reliable) + len(pls.unreliable))


def _on_infonce(tr, args, kwargs, loss):
    tr.count("infonce_skipped", loss is None)


def _on_calibrate(tr, args, kwargs, result):
    sequences = _arg(args, kwargs, 0, "sequences")
    tr.count("frames_offered", sum(len(s) for s in sequences))
    tr.count("frames_selected", result[1].total())


HOOKS = {
    "sparseconv.build_rulebook": _on_rulebook,
    "sparseconv.apply_spatial": _on_spatial,
    "sparseconv.apply_pointwise": _on_pointwise,
    "network.forward": _on_forward,
    "voxel.voxelize": _on_voxelize,
    "pseudolabel.crb_select": _on_crb,
    "pseudolabel.infonce_loss": _on_infonce,
    "sampling.calibrate_beta": _on_calibrate,
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rulebooks: list[tuple[int, int]] = []
        self.topology = None
        self._local = threading.local()
        self._main_stack: list[list] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def _parent(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        main = self._main_stack
        return stack, (main[-1] if main else None)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent = tracer._parent()
            record = [name, 0.0, 0.0, parent]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, namespaces: tuple = ()):
        """Rebind every traced name while the block runs, then restore it."""
        from lim3d.autodiff import Tensor
        from lim3d.pseudolabel import MemoryBank

        for module in {row[1] for row in FUNCTIONS + METHODS}:
            importlib.import_module(module)
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lim3d" or n.startswith("lim3d."))]
        saved: list[tuple[object, str, object]] = []

        def rebind(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                wrapper = self.wrap(name, original)
                for owner in modules + list(namespaces):
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            rebind(owner, key, wrapper)
            for name, module, cls, attr in METHODS:
                klass = getattr(sys.modules[module], cls)
                rebind(klass, attr, self.wrap(name, vars(klass)[attr]))
            rebind(Tensor, "__init__", self._counting_init(vars(Tensor)["__init__"]))
            rebind(MemoryBank, "push", self._counting_push(vars(MemoryBank)["push"]))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _counting_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            counts["tensors"] += 1
            counts["tensor_bytes"] += tensor.data.nbytes

        return counted

    def _counting_push(self, push):
        counts = self.counts

        @functools.wraps(push)
        def counted(bank, *args, **kwargs):
            push(bank, *args, **kwargs)
            counts["bank_pushes"] += 1

        return counted

    # -- reading the spans back ------------------------------------------

    def totals(self) -> tuple[dict[str, dict[str, float]], dict[tuple[str, str], float]]:
        """Per span name: call count, inclusive and self seconds; and the
        inclusive seconds of each (span name, parent span name) pair.

        Self time is a span's duration minus the part of its interval that
        its children cover; children on worker threads may overlap.
        """
        children: dict[int, list[list]] = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_parent: dict[tuple[str, str], float] = defaultdict(float)
        for rec in self.spans:
            name, start, end, parent = rec
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered(start, end, children.get(id(rec), ()))
            if parent is not None:
                by_parent[(name, parent[0])] += end - start
        return dict(rows), dict(by_parent)

    def write_jsonl(self, path) -> None:
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": None if parent is None else ids[id(parent)]}))
                f.write("\n")


def covered(start: float, end: float, children) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    total = 0.0
    reach = start
    for _, c_start, c_end, _ in sorted(children, key=lambda r: r[1]):
        lo = max(c_start, reach)
        hi = min(c_end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (span names, "self_s" or "total_s"). Self time is the default;
# a few rows take the inclusive time because the question they answer is
# "how long did this whole call take": the teacher's predict, the sampler's
# parallel scoring.
LAYER_TIMES = {
    "sparseconv.spatial_s": (("sparseconv.apply_spatial",), "self_s"),
    "sparseconv.pointwise_s": (("sparseconv.apply_pointwise",), "self_s"),
    "sparseconv.rulebook_s": (("sparseconv.build_rulebook",), "self_s"),
    "autodiff.backward_s": (("autodiff.backward",), "self_s"),
    "network.predict_s": (("network.predict",), "total_s"),
    "network.self_s": (("network.forward", "network.predict"), "self_s"),
    "losses.lovasz_s": (("losses.lovasz_softmax",), "self_s"),
    "losses.kl_s": (("losses.kl_consistency",), "self_s"),
    "pseudolabel.partition_s": (("pseudolabel.entropy_partition", "pseudolabel.crb_select"),
                                "self_s"),
    "pseudolabel.bank_push_s": (("pseudolabel.bank_push_negatives",), "self_s"),
    "pseudolabel.anchor_s": (("pseudolabel.build_anchor_set",), "self_s"),
    "pseudolabel.infonce_s": (("pseudolabel.infonce_loss",), "self_s"),
    "training.sgd_s": (("training.sgd_step",), "self_s"),
    "training.ema_s": (("training.ema_update",), "self_s"),
    "training.pipeline_self_s": (("training.run_toy_pipeline",), "self_s"),
    "voxel.voxelize_s": (("voxel.voxelize",), "self_s"),
    "reflectivity.histograms_s": (("reflectivity.coarse_histograms",), "self_s"),
    "ssim.busy_s": (("ssim.ssim",), "self_s"),
    "sampling.redundancies_s": (("sampling.frame_redundancies",), "total_s"),
    "sampling.calibrate_s": (("sampling.calibrate_beta", "sampling.plan_from_redundancies"),
                             "self_s"),
    "pointcloud.read_pgm_s": (("pointcloud.read_pgm",), "self_s"),
    "cli.sample_s": (("cli.cmd_sample",), "self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_ops: int, topology_cost) -> dict[str, tuple[float, str, int]]:
    """Per-layer values per traced operation: name -> (value, unit, calls)."""
    rows, by_parent = tr.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    out: dict[str, tuple[float, str, int]] = {}
    for metric, (names, kind) in LAYER_TIMES.items():
        seconds = sum(row(n)[kind] for n in names)
        out[metric] = (seconds / n_ops, "s", sum(row(n)["calls"] for n in names))

    # The student's forward: forward spans that are not the body of a predict.
    fwd = row("network.forward")
    student = fwd["total_s"] - by_parent.get(("network.forward", "network.predict"), 0.0)
    student_calls = fwd["calls"] - row("network.predict")["calls"]
    out["network.forward_s"] = (student / n_ops, "s", student_calls)

    c = tr.counts
    steps = row("training.sgd_step")["calls"]
    out["autodiff.tensors_per_step"] = (_ratio(c["tensors"], steps), "count", steps)
    out["autodiff.graph_mb_per_step"] = (_ratio(c["tensor_bytes"], steps) / 1e6, "MB", steps)

    n_rb = len(tr.rulebooks)
    out["sparseconv.pairs_per_site"] = (_ratio(c["rulebook_pairs"], c["rulebook_sites"]),
                                        "count", n_rb)
    counted = bound = 0
    if tr.topology is not None:
        for sites, pairs in tr.rulebooks:
            counted += topology_cost(tr.topology, sites, neighbor_pairs=pairs)[1].mult_adds
            bound += topology_cost(tr.topology, sites)[1].mult_adds
    # Per forward pass, averaged over the frames whose rulebooks were built.
    out["sparseconv.mult_adds"] = (_ratio(counted, n_rb), "count", n_rb)
    out["sparseconv.mult_adds_bound"] = (_ratio(bound, n_rb), "count", n_rb)
    conv_s = sum(row(n)["self_s"] for n in ("sparseconv.apply_spatial",
                                            "sparseconv.apply_pointwise"))
    out["sparseconv.mult_adds_per_s"] = (_ratio(c["mult_adds_executed"], conv_s), "1/s",
                                         row("sparseconv.apply_spatial")["calls"]
                                         + row("sparseconv.apply_pointwise")["calls"])

    partitions = row("pseudolabel.crb_select")["calls"]
    out["pseudolabel.reliable_frac"] = (_ratio(c["reliable_voxels"], c["partitioned_voxels"]),
                                        "ratio", partitions)
    out["pseudolabel.bank_pushes"] = (c["bank_pushes"] / n_ops, "count",
                                      row("pseudolabel.bank_push_negatives")["calls"])
    infonce = row("pseudolabel.infonce_loss")["calls"]
    out["pseudolabel.contrastive_skipped_frac"] = (_ratio(c["infonce_skipped"], infonce),
                                                   "ratio", infonce)
    voxelize = row("voxel.voxelize")["calls"]
    out["voxel.sites"] = (_ratio(c["voxelize_sites"], voxelize), "count", voxelize)
    ssim = row("ssim.ssim")
    out["ssim.calls"] = (ssim["calls"] / n_ops, "count", ssim["calls"])
    redundancies = row("sampling.frame_redundancies")
    out["ssim.pool_speedup"] = (_ratio(ssim["total_s"], redundancies["total_s"]), "ratio",
                                redundancies["calls"])
    plans = row("sampling.plan_from_redundancies")["calls"]
    out["sampling.plan_evals"] = (plans / n_ops, "count", plans)
    out["sampling.selected_frac"] = (_ratio(c["frames_selected"], c["frames_offered"]),
                                     "ratio", row("sampling.calibrate_beta")["calls"])
    return out
