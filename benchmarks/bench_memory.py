#!/usr/bin/env python3
"""Peak memory of ``wavegalerkin run`` against the run's sample history, per configuration.

A run records its states into one history of ``(T/dt / sample_stride + 2)``
rows of positions and velocities, ``2 * modes`` float64 each, the figure
that ``config.HISTORY_BYTES_MAX`` caps.  Past stepping, a run should hold
little more: the energy columns, which grow with samples alone, and one
block of rows at a time.  For each configuration this prints the history
bytes, the tracemalloc peak of ``cli.main(["run", config])`` in this
process, and their ratio.  tracemalloc sees every numpy buffer as well as
Python's own objects, but not what BLAS or the allocator keep outside them.

The configurations are the benchmark workloads' (``layerbench/workloads.py``,
imported without writing bytecode next to it) for ``--seed``, and two long
stride-1 runs whose histories dwarf every fixed cost:

- ``forced_cubic_long``: periodic, m=32, cubic F, affine forcing, T=50,
  dt=1e-3 (50,001 samples, 24.4 MiB of history);
- ``custom_table_long``: Dirichlet, m=24, the workloads' tabulated cubic,
  zero forcing, T=20, dt=1e-3 (20,001 samples, 7.3 MiB).

``--short`` runs the first configuration of each workload and the two long
runs at a tenth of their length, as a check that the measurement runs.
BLAS runs on one thread, as in the layered benchmark.

    PYTHONPATH=src python3 benchmarks/bench_memory.py [--seed S] [--short]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from wavegalerkin import cli
from wavegalerkin.config import load_config

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20


def _workloads_module():
    sys.path.insert(0, str(ROOT / "layerbench"))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = False
        sys.path.pop(0)
    return workloads


def long_configs(workloads, scale: float = 1.0) -> dict[str, dict]:
    """The two long stride-1 configurations, their times multiplied by ``scale``."""
    forced = {
        "domain": {"length": 1.0, "bc": workloads.PERIODIC},
        "modes": 32,
        "nonlinearity": {"kind": "cubic"},
        "forcing": {"kind": "affine", "g0": 0.5, "g1": 0.05, "g2": 0.05, "constant": 0.5},
        "initial": {"x0": {"type": "sine", "wavenumber": 1, "amplitude": 0.8}, "x1": {"type": "zero"}},
        "time": {"T": 50.0 * scale, "dt": 1e-3, "sample_stride": 1},
    }
    table = {
        "domain": {"length": 1.0, "bc": workloads.DIRICHLET},
        "modes": 24,
        "nonlinearity": workloads.custom_table(24, 1.0),
        "forcing": {"kind": "zero"},
        "initial": {"x0": {"type": "parabola"}, "x1": {"type": "zero"}},
        "time": {"T": 20.0 * scale, "dt": 1e-3, "sample_stride": 1},
    }
    return {"forced_cubic_long": forced, "custom_table_long": table}


def history(config_path: Path) -> tuple[int, int]:
    """The run's sample count and the bytes of its history, as ``config`` budgets them."""
    rc = load_config(str(config_path))
    rows = rc.solver.n_steps // rc.solver.sample_stride + 2
    return rows - 1, rows * 2 * rc.modes * 8


def run_peak(config_path: Path, out_dir: Path) -> tuple[int, int]:
    """Exit code and tracemalloc peak of one ``run``, its output re-rooted at ``out_dir``."""
    os.environ[cli.ENV_OUTPUT_DIR] = str(out_dir)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(config_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def plan(workloads, seed: int, short: bool, cfg_dir: Path) -> list[tuple[str, Path]]:
    """(name, config path) of every configuration to measure, written under ``cfg_dir``."""
    items = []
    for workload in workloads.WORKLOADS:
        specs = workloads.generate(workload, seed)
        specs = specs[:1] if short else specs
        paths = workloads.write_configs(specs, cfg_dir / workload)
        items += [(f"{workload}/{p.stem}", p) for p in paths]
    for name, cfg in long_configs(workloads, 0.1 if short else 1.0).items():
        cfg["output"] = {"csv_path": f"out/{name}.csv", "report_path": f"out/{name}.report.json"}
        p = cfg_dir / f"{name}.json"
        p.write_text(json.dumps(cfg))
        items.append((name, p))
    return items


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--short", action="store_true", help="one configuration per workload and the long runs at a tenth")
    args = ap.parse_args(argv)
    workloads = _workloads_module()
    print(f"numpy {np.__version__}; seed {args.seed}; tracemalloc peak of one run in this process")
    print(f"{'config':<30}{'exit':>5}{'samples':>9}{'history_MiB':>13}{'peak_MiB':>10}{'ratio':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, path in plan(workloads, args.seed, args.short, tmp / "cfg"):
            samples, hist = history(path)
            code, peak = run_peak(path, tmp / "out")
            print(f"{name:<30}{code:>5}{samples:>9}{hist / MIB:>13.3f}{peak / MIB:>10.3f}{peak / hist:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
