"""One workload in one process; `run.py` starts it and reads its result file.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --size full|smoke --out RESULT.json

With ``--trace 0`` the workload is set up several times (each set-up
timed) and its operation is repeated until the operations have run for
``--seconds``. With ``--trace 1`` a fixed number of operations runs
untraced, alternating with the same number traced, so counts repeat
exactly for a seed and the two timings give the tracing overhead. Every operation's
output is checked outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


class Run:
    """Attempted/failed bookkeeping plus the timings of one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []
        self.step_s: list[float] = []
        self.phases: dict[str, list[float]] = defaultdict(list)

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.failures.extend(messages)

    def op(self, wl, state, i: int, tracer=None, namespaces=()) -> bool:
        """Time one operation, check it, and say whether to go on."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                phases, output = wl.op(state, i)
                elapsed = perf_counter() - t0
            else:
                with tracer.installed(namespaces):
                    t0 = perf_counter()
                    phases, output = wl.op(state, i)
                    elapsed = perf_counter() - t0
        except MemoryError:
            self.fail([f"op {i}: MemoryError under the address-space limit"])
            return False
        except Exception:
            self.fail([f"op {i}: {traceback.format_exc(limit=3)}"])
            return False
        self.op_s.append(elapsed)
        self.step_s.extend(phases.pop("step_s", [elapsed]))
        for key, value in phases.items():
            self.phases[key].append(value)
        messages = wl.check(state, output)
        if messages:
            self.fail([f"op {i}: {m}" for m in messages])
        return True

    def final_check(self, wl, state) -> None:
        if hasattr(wl, "final_check"):
            self.attempted += 1
            messages = wl.final_check(state)
            if messages:
                self.fail(messages)


def timed(wl, run: Run, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = []
    state = None
    for _ in range(wl.setup_repeats):
        if state is not None:
            wl.release(state)
        state = None
        t0 = perf_counter()
        state = wl.setup(seed, workdir)
        setup_s.append(perf_counter() - t0)
    try:
        i = 0
        while i < wl.min_ops or sum(run.op_s) < seconds:
            if not run.op(wl, state, i):
                break
            i += 1
        run.final_check(wl, state)
        named = wl.named(state, run.op_s, run.phases)
    finally:
        wl.release(state)
    return {"setup_s": setup_s, "named": named}


def traced(wl, run: Run, seed: int, workdir: Path, spans_path: Path) -> dict:
    import tracer
    import workloads
    from lim3d import topology_cost

    t0 = perf_counter()
    state = wl.setup(seed, workdir)
    setup_s = [perf_counter() - t0]
    tr = tracer.Tracer()
    untraced, traced_s = [], []
    try:
        # Untraced and traced steps alternate, so a drift in machine speed
        # lands on both sides of the overhead ratio alike.
        for i in range(2 * wl.trace_ops):
            on = i % 2 == 1
            if not run.op(wl, state, i, tracer=tr if on else None, namespaces=(workloads,)):
                break
            (traced_s if on else untraced).append(run.op_s[-1])
        run.final_check(wl, state)
        named = wl.named(state, untraced,
                         {k: v[0::2] for k, v in run.phases.items()})
    finally:
        wl.release(state)
    tr.write_jsonl(spans_path)
    layers = tracer.layer_metrics(tr, max(1, len(traced_s)), topology_cost)
    untraced_med = median(untraced) if untraced else float("nan")
    traced_med = median(traced_s) if traced_s else float("nan")
    layers["trace.untraced_op_s"] = (untraced_med, "s", len(untraced))
    layers["trace.traced_op_s"] = (traced_med, "s", len(traced_s))
    layers["trace.overhead_frac"] = (traced_med / untraced_med - 1.0, "ratio", len(traced_s))
    return {"setup_s": setup_s, "named": named, "layers": layers,
            "spans": {"file": str(spans_path.relative_to(ROOT)), "count": len(tr.spans)}}


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_vars": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "LIM3D_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import lim3d
    where = Path(lim3d.__file__).resolve().parent
    if where != ROOT / "src" / "lim3d":
        print(f"error: lim3d imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](smoke=args.size == "smoke")
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    workdir = OUT / f"work-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "why": wl.why, "environment": environment()}
    try:
        if args.trace:
            result.update(traced(wl, run, args.seed, workdir, OUT / f"spans-{tag}.jsonl"))
        else:
            result.update(timed(wl, run, args.seed, args.seconds, workdir))
    except MemoryError:
        run.attempted += 1
        run.fail(["set-up: MemoryError under the address-space limit"])
    except Exception:
        run.attempted += 1
        run.fail([f"set-up: {traceback.format_exc(limit=3)}"])
    finally:
        if workdir.exists() and not any(workdir.iterdir()):
            workdir.rmdir()
    result.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  op_s=run.op_s, step_s=run.step_s, phases=dict(run.phases))
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
