#!/usr/bin/env python3
"""Crossover sweep: the stepping loop's Galerkin term on dense products against the FFT pair, per mode count.

For each boundary condition and each swept mode count m it times one call
of the term that ``solver._galerkin_term`` builds for the cubic F without
forcing, ``-lambda P F(B a)`` written into a preallocated array, which
each acceleration of the stepping loop calls once.  The dense side samples
with the basis matrix and folds ``-lambda`` and the projection into one
matrix; the FFT side stays in the FFT's own grid order and writes into
buffers of its own.  Both sides are built at every m, by moving
``spectral.FFT_MIN_MODES`` while their operators are made, and are checked
against each other before timing.

The sweep covers every m from M_MIN to M_MAX in steps of STEP, plus every
m in that range whose default grid size n is prime: the FFT of a prime
length is the slowest, so those m decide the crossover.  It prints one row
per swept m and, per boundary condition, the smallest M such that the FFT
side was no slower for every swept m >= M; ``FFT_MIN_MODES`` is set from
the larger of the two.

BLAS runs on one thread and the process on one CPU, as in the layered
benchmark.  Each time is the best of ROUNDS alternating rounds, each round
a batch of calls lasting at least a millisecond.

    PYTHONPATH=src python3 benchmarks/bench_transforms.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np

from wavegalerkin import spectral
from wavegalerkin.nonlinearity import cubic_nonlinearity, zero_forcing
from wavegalerkin.solver import _galerkin_term
from wavegalerkin.spectral import DIRICHLET, PERIODIC_MEAN_ZERO, DomainSpec, build_operator, default_grid_points

M_MIN, M_MAX = 128, 1024
STEP = 8  # stride of the regular mode counts; prime-n ones are always added
ROUNDS = 5


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def swept_modes(bc: str) -> list[int]:
    ms = set(range(M_MIN, M_MAX + 1, STEP)) | {M_MAX}
    ms |= {m for m in range(M_MIN, M_MAX + 1) if is_prime(default_grid_points(m, bc))}
    return sorted(ms)


def galerkin_terms(bc: str, m: int) -> tuple[int, dict]:
    """Grid size and the dense and FFT Galerkin terms at ``m`` modes, whatever ``FFT_MIN_MODES`` is."""
    terms = {}
    saved = spectral.FFT_MIN_MODES
    try:
        # An operator picks its transforms on first use, which building the term is.
        for name, threshold in (("dense", m + 1), ("fft", m)):
            spectral.FFT_MIN_MODES = threshold
            op = build_operator(DomainSpec(length=1.0, bc=bc), m)
            terms[name] = _galerkin_term(op, cubic_nonlinearity(), zero_forcing())
            assert (op._fft is None) == (name == "dense")
    finally:
        spectral.FFT_MIN_MODES = saved
    return op.grid_points, terms


def call(term, a):
    out = np.empty_like(a)
    term(a, out)
    return out


def batch_size(fn) -> int:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= 1e-3:
            return n
        n *= 2


def best_us(fns: dict) -> dict:
    """Best per-call time of each callable, alternating them round by round."""
    sizes = {k: batch_size(fn) for k, fn in fns.items()}
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(ROUNDS):
        for k, fn in fns.items():
            n = sizes[k]
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best[k] = min(best[k], (time.perf_counter() - t0) / n * 1e6)
    return best


def sweep(bc: str, ms: list[int]) -> list[tuple]:
    rng = np.random.default_rng(0)
    rows = []
    for m in ms:
        n, terms = galerkin_terms(bc, m)
        a = rng.uniform(-1.0, 1.0, m) / m
        want = call(terms["dense"], a)
        gap = np.linalg.norm(call(terms["fft"], a) - want) / np.linalg.norm(want)
        if not gap <= 1e-12:
            raise SystemExit(f"{bc} m={m}: FFT and dense Galerkin terms differ by {gap:.3e} relative")
        out = np.empty(m)
        t = best_us({name: (lambda term=term: term(a, out)) for name, term in terms.items()})
        rows.append((m, n, t["dense"], t["fft"]))
    return rows


def crossover(rows: list[tuple]) -> int | None:
    """Smallest swept M with FFT no slower than dense at every swept m >= M."""
    m_cross = None
    for m, _, dense_us, fft_us in reversed(rows):
        if fft_us > dense_us:
            break
        m_cross = m
    return m_cross


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"numpy {np.__version__}; FFT_MIN_MODES = {spectral.FFT_MIN_MODES}; best of {ROUNDS} rounds")
    crosses = []
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        rows = sweep(bc, swept_modes(bc))
        print(f"{'bc':<20}{'m':>6}{'n':>6}{'prime':>7}{'dense_us':>11}{'fft_us':>11}{'ratio':>8}")
        for m, n, d, f in rows:
            print(f"{bc:<20}{m:>6}{n:>6}{'yes' if is_prime(n) else '':>7}{d:>11.1f}{f:>11.1f}{f / d:>8.2f}")
        m_cross = crossover(rows)
        crosses.append(m_cross)
        slower = [m for m, _, d, f in rows if f > d]
        above = [f / d for m, _, d, f in rows if m_cross is not None and m >= m_cross]
        print(
            f"{bc}: {len(rows)} mode counts in [{M_MIN}, {M_MAX}], "
            f"{sum(is_prime(n) for _, n, _, _ in rows)} with prime n; "
            f"FFT slower at {len(slower)} (largest m {max(slower) if slower else '-'}); "
            f"crossover M = {m_cross}; worst fft/dense at m >= M: {max(above) if above else float('nan'):.2f}"
        )
    if all(c is not None for c in crosses):
        print(f"smallest M for both boundary conditions: {max(crosses)}")
    else:
        print("no crossover within the swept range")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
