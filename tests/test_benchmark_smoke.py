"""The benchmark's smoke mode, run as a test.

It runs every workload at tiny sizes, untraced and traced, and checks each
output against the benchmark's own oracles, so neither the benchmark nor
the package names its span tracer wraps can drift apart unnoticed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1] == '{"smoke": "ok"}', proc.stdout[-3000:] + proc.stderr[-3000:]
