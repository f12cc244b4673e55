"""Smoke test: the stepping benchmark runs and prints one row per shape."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_bench_stepping_runs_a_few_steps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_stepping.py"), "--steps", "5", "--repeats", "1", "--processes", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"numpy {np.__version__}")
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in lines[3:]}
    assert list(rows) == [
        "long_small",
        "dense_output",
        "dense_stride1",
        "wide_modes",
        "verlet",
        "custom_table",
        "power_law",
        "wide_custom",
        "wide_periodic",
    ]
    assert all(0.0 < low <= mid for low, mid in rows.values())
