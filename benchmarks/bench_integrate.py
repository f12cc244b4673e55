#!/usr/bin/env python3
"""Time the compiled integrator against the pure-numpy fallback.

Runs the same cubic problem once per backend (after a warm-up that absorbs
JIT compilation), reports best/mean wall time, and checks that the two
backends produce the same final coefficients: it exits 1 when they differ
by more than MAX_GAP.  Without numba only the numpy backend is timed.

    PYTHONPATH=src python3 benchmarks/bench_integrate.py
"""

import os
import time

import numpy as np

from wavegalerkin.kernels import ENV_NO_NUMBA, NUMBA_AVAILABLE
from wavegalerkin.nonlinearity import cubic_nonlinearity, zero_forcing
from wavegalerkin.solver import SolverConfig, integrate, project_initial_data
from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator

MODES = 32
DT = 1e-3
T = 5.0
REPEAT = 3
# The loosest tolerance in tests/test_kernels.py::test_compiled_and_numpy_paths_agree.
MAX_GAP = 1e-10


def build_problem(modes: int):
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), modes)
    xi = op.nodes
    init = project_initial_data(xi * (1.0 - xi), np.zeros_like(xi), op)
    return op, init.state


def time_backend(state, cfg, op, nl, fs, repeat: int):
    traj = integrate(state, cfg, op, nl, fs)  # warm-up; compiles on first call
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        traj = integrate(state, cfg, op, nl, fs)
        times.append(time.perf_counter() - t0)
    return min(times), sum(times) / len(times), traj


def main() -> int:
    op, state = build_problem(MODES)
    nl = cubic_nonlinearity()
    fs = zero_forcing()
    n_steps = int(round(T / DT))
    # record endpoints only so the loop, not bookkeeping, is measured
    cfg = SolverConfig(T=T, dt=DT, sample_stride=max(n_steps, 1))
    print(f"modes={MODES} dt={DT:g} T={T:g} steps={n_steps} repeat={REPEAT}")

    saved = os.environ.get(ENV_NO_NUMBA)
    results = {}
    try:
        if NUMBA_AVAILABLE:
            os.environ.pop(ENV_NO_NUMBA, None)
            results["numba"] = time_backend(state, cfg, op, nl, fs, REPEAT)
        else:
            print("numba unavailable; timing the numpy backend only")
        os.environ[ENV_NO_NUMBA] = "1"
        results["numpy"] = time_backend(state, cfg, op, nl, fs, REPEAT)
    finally:
        if saved is None:
            os.environ.pop(ENV_NO_NUMBA, None)
        else:
            os.environ[ENV_NO_NUMBA] = saved

    print(f"{'backend':<10}{'best':>12}{'mean':>12}")
    for name, (best, mean, _) in results.items():
        print(f"{name:<10}{best:>11.4f}s{mean:>11.4f}s")
    if "numba" in results:
        speedup = results["numpy"][0] / results["numba"][0]
        gap = float(np.max(np.abs(results["numba"][2].a[-1] - results["numpy"][2].a[-1])))
        print(f"speedup (best/best): {speedup:.1f}x")
        print(f"max |a_numba - a_numpy| at T: {gap:.3e}")
        if not gap <= MAX_GAP:
            print(f"backends differ by more than {MAX_GAP:g}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
