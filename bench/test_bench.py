"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer, covered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_pass_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "toy_pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    children = [["c", 1.0, 3.0, None], ["c", 2.0, 4.0, None], ["c", 6.0, 12.0, None]]
    assert covered(0.0, 10.0, children) == pytest.approx(3.0 + 4.0)


def test_tracing_restores_every_rebound_name():
    import lim3d
    import lim3d.network

    def bindings():
        return (lim3d.network.apply_spatial, lim3d.sparseconv.apply_spatial,
                vars(lim3d.Tensor)["__init__"], vars(lim3d.MiniSegNet)["predict"])

    before = bindings()
    with Tracer().installed():
        assert all(a is not b for a, b in zip(bindings(), before))
    assert all(a is b for a, b in zip(bindings(), before))
