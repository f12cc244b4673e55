#!/usr/bin/env python3
"""Microseconds per step of the stepping loop at each benchmark workload's shape.

Times ``kernels.run_numpy`` with the Galerkin term and forcing coefficients
that ``solver._stepping_terms`` builds for the integrator's block of stage
rows (2 for RK4, 1 for velocity Verlet), on nine shapes:

- ``long_small``: Dirichlet, m=16, cubic F, no forcing, RK4;
- ``dense_output``: periodic, m=32, cubic F, affine forcing, RK4;
- ``dense_stride1``: ``dense_output`` recording every step, as that
  workload runs it, so that the cost of a record shows;
- ``wide_modes``: Dirichlet, m=512, power-law F (p=4) on the FFT pair, RK4;
- ``verlet``: Dirichlet, m=16, cubic F, no forcing, velocity Verlet;
- ``custom_table``: Dirichlet, m=16, a custom F from the table f = 3r^2,
  affine forcing, RK4 (folded into the same matrix as the cubic);
- ``power_law``: Dirichlet, m=32, power-law F (p=3.5) on dense products,
  no forcing, RK4 (the power-law path of the ``short_mix`` workload);
- ``wide_custom``: Dirichlet, m=512, the custom table of ``custom_table``
  on the FFT pair, no forcing, RK4 (a table is not odd, so the term flips
  the signs of the FFT's grid order around it);
- ``wide_periodic``: periodic, m=512, power-law F (p=4) on the FFT pair,
  no forcing, RK4.

Every shape is timed in ``--processes`` fresh processes, one after the
other, each taking the minimum over ``--repeats`` runs of ``--steps`` steps
from the parabola x(1 - x) at rest, recording only the first and last
states.  At small m a step costs a few microseconds of fixed per-call
overhead, so a run on a shared machine reads slow whenever it is
interrupted; the minimum is the least disturbed of the runs.  Whole
processes can also land in a mode that is slow for every shape at once (up
to 2x), so each row gives the best process's minimum and the median of the
processes' minima.  BLAS is pinned to one thread and, where the platform
allows it, each process to one CPU.  The numpy version is printed with the
table.

    PYTHONPATH=src python3 benchmarks/bench_stepping.py [--steps N] [--repeats R] [--processes P]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from wavegalerkin import kernels
from wavegalerkin.nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
    custom_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    zero_forcing,
)
from wavegalerkin.solver import _stepping_terms, project_initial_data
from wavegalerkin.spectral import DIRICHLET, PERIODIC_MEAN_ZERO, DomainSpec, build_operator

_R = np.linspace(-2.0, 2.0, 2001)
_TABLE = tabulated_f(_R, 3.0 * _R * _R)


class Case(NamedTuple):
    bc: str
    m: int
    nl: object
    fs: object
    use_verlet: bool
    dt: float
    stride: int | None = None  # None: record the first and the last state only


_AFFINE = affine_forcing(g1=0.05, g2=0.05, constant=0.5, g0=0.5)
_CUSTOM = custom_nonlinearity(_TABLE, 4.0, 1.0, 1.0, 1.0, 0.0)

CASES = {
    "long_small": Case(DIRICHLET, 16, cubic_nonlinearity(), zero_forcing(), False, 1e-3),
    "dense_output": Case(PERIODIC_MEAN_ZERO, 32, cubic_nonlinearity(), _AFFINE, False, 1e-3),
    "dense_stride1": Case(PERIODIC_MEAN_ZERO, 32, cubic_nonlinearity(), _AFFINE, False, 1e-3, stride=1),
    "wide_modes": Case(DIRICHLET, 512, power_law_nonlinearity(4.0), zero_forcing(), False, 2.5e-4),
    "verlet": Case(DIRICHLET, 16, cubic_nonlinearity(), zero_forcing(), True, 1e-3),
    "custom_table": Case(DIRICHLET, 16, _CUSTOM, _AFFINE, False, 1e-3),
    "power_law": Case(DIRICHLET, 32, power_law_nonlinearity(3.5), zero_forcing(), False, 1e-3),
    "wide_custom": Case(DIRICHLET, 512, _CUSTOM, zero_forcing(), False, 2.5e-4),
    "wide_periodic": Case(PERIODIC_MEAN_ZERO, 512, power_law_nonlinearity(4.0), zero_forcing(), False, 2.5e-4),
}


def step_us(case: Case, steps: int, repeats: int) -> float:
    """Minimum microseconds per step over ``repeats`` runs."""
    op = build_operator(DomainSpec(length=1.0, bc=case.bc), case.m)
    x = op.nodes
    state = project_initial_data(x * (1.0 - x), np.zeros_like(x), op).state
    a0, v0 = np.array(state.a), np.array(state.adot)
    terms = _stepping_terms(op, case.nl, case.fs, 1 if case.use_verlet else 2)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, _, _, div = kernels.run_numpy(a0, v0, case.dt, steps, case.stride or steps, 1e12, case.use_verlet, *terms)
        times.append(time.perf_counter() - t0)
        if div >= 0:
            raise RuntimeError(f"run diverged at step {div}")
    return min(times) / steps * 1e6


def pin_cpu() -> str:
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    return f"CPU {pinned}"


def time_shapes(steps: int, repeats: int) -> dict[str, float]:
    """Every shape's minimum microseconds per step, timed in this process."""
    pin_cpu()
    return {name: step_us(case, steps, repeats) for name, case in CASES.items()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--processes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.processes < 1:
        ap.error("--processes must be at least 1")
    # One fresh process at a time, so that no two timings share a CPU.
    spawn = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(args.processes):
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            runs.append(pool.submit(time_shapes, args.steps, args.repeats).result())
    cpu = pin_cpu()
    print(f"numpy {np.__version__}, BLAS threads pinned to {os.environ['OPENBLAS_NUM_THREADS']}, each process on {cpu}")
    print(f"best and median over {args.processes} processes of each one's minimum of {args.repeats} runs of {args.steps} steps")
    print(f"{'shape':<15}{'min us/step':>12}{'median':>10}")
    for name in CASES:
        per_process = [run[name] for run in runs]
        print(f"{name:<15}{min(per_process):>12.2f}{statistics.median(per_process):>10.2f}")


if __name__ == "__main__":
    main()
