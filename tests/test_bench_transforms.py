"""Smoke test: the crossover sweep runs in its short mode and prints a crossover."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_bench_transforms_short_sweep():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_transforms.py"), "--short"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"numpy {np.__version__}")
    rows = {}
    for line in lines:
        fields = line.split()
        if fields[0] in ("dirichlet", "periodic_mean_zero") and len(fields) == 8:
            rows.setdefault(fields[0], []).append([float(v) for v in fields[1:]])
    assert sorted(rows) == ["dirichlet", "periodic_mean_zero"]
    for bc_rows in rows.values():
        assert [int(r[0]) for r in bc_rows] == [128, 256, 512]
        for m, n_dense, n_fft, dense_us, fft_us, ratio, gap in bc_rows:
            # the FFT runs on a 5-smooth grid at or above the dense one
            n = int(n_fft)
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1 and n_fft >= n_dense > 2 * m
            assert dense_us > 0 and fft_us > 0
            # the two sides compute the same term
            assert gap <= 1e-12
    assert len(re.findall(r"crossover M = (\d+|None);", proc.stdout)) == 2
    assert re.search(r"^(smallest M for both boundary conditions: \d+|no crossover within the swept range)$", lines[-1])
