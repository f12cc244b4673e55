"""Smoke test: the peak-memory table runs in its short mode and prints one row per configuration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_bench_memory_short_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_memory.py"), "--short"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"numpy {np.__version__}; seed 0;")
    assert lines[1].split() == ["config", "exit", "samples", "history_MiB", "peak_MiB", "ratio"]
    rows = {fields[0]: fields[1:] for fields in (line.split() for line in lines[2:])}
    assert [name.split("/")[0] for name in rows] == [
        "long_small",
        "wide_modes",
        "dense_output",
        "short_mix",
        "forced_cubic_long",
        "custom_table_long",
    ]
    # the long runs at a tenth: T = 5 at m = 32 and T = 2 at m = 24, stride 1
    assert rows["forced_cubic_long"][1:3] == ["5001", f"{5002 * 2 * 32 * 8 / 2**20:.3f}"]
    assert rows["custom_table_long"][1:3] == ["2001", f"{2002 * 2 * 24 * 8 / 2**20:.3f}"]
    for name, (code, samples, history, peak, ratio) in rows.items():
        assert code == "0", name
        # every run holds at least its history
        assert int(samples) > 0 and 0 < float(history) < float(peak), name
        if float(history) >= 0.5:  # the printed MiB carry three decimals
            assert abs(float(ratio) - float(peak) / float(history)) <= 0.01 * float(ratio), name
