"""The lim3d benchmark.

    python3 bench/run.py --workload toy_pipeline --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout. Each invocation runs one workload in a
child process (`worker.py`) under an address-space limit below the
machine's available memory, with BLAS and OpenMP held to one thread so the
sampler's pool is the only parallelism measured. The child's peak RSS comes
from the kernel's accounting of the child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines above it and ``bench/out/report-*.json`` carry the workload metrics
named in the README, sample counts, call counts and the environment.

``--smoke`` runs every workload once at a reduced size, traced and
untraced, with all output checks, and exits 0 only if every run is correct
and reports every metric that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("toy_pipeline", "large_frame", "sample_sequences")
CHILD_TIMEOUT_S = 170
# Share of MemAvailable the child may map; a larger request raises
# MemoryError in the child instead of starving the machine.
MEMORY_SHARE = 0.8


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(1 for p in sorted((ROOT / "src" / "lim3d").rglob("*.py"))
               for line in p.read_text().splitlines() if line.strip())


def run_child(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run one workload in a child process and return its result record."""
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    available = mem_available_bytes()
    limit = int(available * MEMORY_SHARE) if available else resource.RLIM_INFINITY
    result_path = OUT / f"result-{workload}-{size}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", LIM3D_THREADS=str(nproc), PYTHONPATH=str(ROOT / "src"))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", str(result_path)]
    # The child's own prints go to stderr so the last stdout line stays ours.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, preexec_fn=cap_memory)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)

    record: dict = {}
    if result_path.exists():
        with open(result_path) as f:
            record = json.load(f)
    problems = []
    if timed_out:
        problems.append(f"child killed after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        problems.append(f"child exited {proc.returncode}")
    if not record:
        problems.append("child wrote no result")
    record.setdefault("failures", []).extend(problems)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["environment"] = dict(record.get("environment", {}), nproc=nproc, cpu=cpu_model(),
                                 mem_available_mb=available / 2**20 if available else None,
                                 address_space_limit_mb=limit / 2**20 if available else None,
                                 src_lines=src_lines())
    if problems:
        record["attempted"] = max(1, record.get("attempted", 0))
        record["failed"] = max(1, record.get("failed", 0))
    return record


def metrics_of(record: dict, trace: int) -> dict:
    if trace:
        rows = record.get("layers", {})
        return {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    setup, steps = record.get("setup_s", []), record.get("step_s", [])
    return {
        "setup_s": {"value": statistics.median(setup) if setup else math.nan, "unit": "s"},
        "step_s": {"value": statistics.median(steps) if steps else math.nan, "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
    }


def summary(record: dict, metrics: dict) -> dict:
    """The result line; a metric that could not be measured reads null."""
    def finite(value):
        return isinstance(value, (int, float)) and math.isfinite(value)

    metrics = {k: {"value": m["value"] if finite(m["value"]) else None, "unit": m["unit"]}
               for k, m in metrics.items()}
    attempted, failed = record.get("attempted", 1), record.get("failed", 1)
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def describe(record: dict, metrics: dict, trace: int) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"workload {record.get('workload')} seed {record.get('seed')} trace {trace}",
             f"  why: {record.get('why', '')}"]
    steps = record.get("step_s", [])
    counts = {"setup_s": len(record.get("setup_s", [])), "step_s": len(steps), "peak_rss_mb": 1}
    for name, (_, _, calls) in record.get("layers", {}).items():
        counts[name] = calls
    label = "calls" if trace else "n"
    for name, m in metrics.items():
        lines.append(f"  {name:<38} {m['value']!s:>22} {m['unit']:<6} ({label}={counts.get(name)})")
    named = dict(record.get("named", {}))
    if steps and not trace:
        # The highest percentile with at least ten samples beyond it.
        for q in (99, 95, 90):
            if len(steps) * (100 - q) / 100 >= 10:
                named[f"step_p{q}_s"] = (statistics.quantiles(steps, n=100)[q - 1], "s",
                                         len(steps))
                break
        ops = record.get("op_s", [])
        named["op_s"] = (statistics.median(ops) if ops else math.nan, "s", len(ops))
    for name, (value, unit, n) in named.items():
        lines.append(f"  {name:<38} {value!s:>22} {unit:<6} (n={n})")
    attempted, failed = record.get("attempted", 1), record.get("failed", 1)
    lines.append(f"  {'error_rate':<38} {failed / max(1, attempted)!s:>22} ratio  "
                 f"({failed} of {attempted} operations failed)")
    for message in record.get("failures", []):
        lines.append(f"  FAILED: {message.strip()}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str = "full"):
    record = run_child(workload, seed, seconds, trace, size)
    record["deferred"] = ("The ROADMAP's 27k-site frame (100k points on 240x180x32) is not a "
                          "workload: one training step peaked at 5.6 GB RSS on a 7 GB machine.")
    metrics = metrics_of(record, trace)
    result = summary(record, metrics)
    report = OUT / f"report-{workload}-{size}-seed{seed}-trace{trace}.json"
    with open(report, "w") as f:
        json.dump(dict(record, result=result), f, indent=1)
    return record, metrics, result, report


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in declared["end_to_end"]},
                1: {m["name"] for m in declared["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            record, metrics, result, _ = run_one(workload, 1, 0, trace, size="smoke")
            missing = expected[trace] ^ set(metrics)
            passed = result["correct"] and not missing
            ok &= passed
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s)")
            if missing:
                print(f"  metrics differ from BENCHMARK.json: {sorted(missing)}")
            for message in record.get("failures", []):
                print(f"  FAILED: {message.strip()}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a reduced size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lim3d" / "__init__.py").is_file():
        print(f"error: no lim3d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record, metrics, result, report = run_one(args.workload, args.seed, args.seconds, args.trace)
    for line in describe(record, metrics, args.trace):
        print(line)
    print(f"  report: {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
