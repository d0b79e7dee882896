"""The benchmark's smoke pass runs against the current sources.

`bench/tracer.py` rebinds lim3d names by string (`lim3d.sparseconv.apply_spatial`,
`Tensor.backward`, ...), so a change under `src/` can break the benchmark
without failing any test of the package itself. The smoke pass runs every
workload once at a reduced size, untraced and traced, with all its output
checks; it prints one verdict line per pass and exits non-zero on any
failed check or a metric set that differs from `BENCHMARK.json`. The traced
passes of the two workloads that run convolutions must also count them.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_smoke_pass_is_correct_with_no_failed_operation():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    verdicts = dict(re.findall(r"^smoke (\S+ trace=\d): (\S+)", proc.stdout, re.MULTILINE))
    assert verdicts == {f"{w} trace={t}": "ok" for w in WORKLOADS for t in (0, 1)}
    for w in WORKLOADS:
        for t in (0, 1):
            result = json.loads((ROOT / "bench" / "out" /
                                 f"result-{w}-smoke-seed1-trace{t}.json").read_text())
            assert result["attempted"] > 0 and result["failed"] == 0, (w, t, result["failures"])
            if t and w in ("toy_pipeline", "large_frame"):
                # The tracer counts multiply-adds from the kernel argument's kind and
                # channels, so these read 0 if `apply_spatial` is handed less.
                layers = result["layers"]
                for metric in ("sparseconv.mult_adds", "sparseconv.mult_adds_per_s"):
                    assert layers[metric][0] > 0, (w, metric, layers[metric])
