"""Test files that must also pass on their own, in a fresh interpreter.

A memory test can pass in the full suite only because an earlier test has
already paid for a lazy import; run alone, its file shows that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_autodiff_file_passes_alone():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_autodiff.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
