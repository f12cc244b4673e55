#!/usr/bin/env python3
"""Crossover sweep: the stepping loop's Galerkin term on dense products against the FFT pair, per mode count.

For each boundary condition and each swept mode count m it times one call
of the term that ``solver._galerkin_term`` builds for the cubic F and RK4's
``(2, m)`` blocks: ``-lambda P F(B y)`` of both rows ``y`` of a block,
written into a preallocated block, which each of the two rounds of an RK4
step calls once.  The dense side samples with the basis matrix and folds
``-lambda`` and the projection into one matrix; the FFT side stays in the
FFT's own grid order and transforms both rows in one call each way, into
buffers of its own.  Each side is built as the program would build it if
``spectral.FFT_MIN_MODES`` put m on that side: the constant is moved while
the operator is made, and the default grid moves with it, so the dense side
runs on the smallest exact grid (n_dense) and the FFT side on the smallest
5-smooth grid at or above it (n_fft).  Both quadratures are exact for the
cubic F, so the two terms are checked against each other before timing.

The sweep covers every m from M_MIN to M_MAX in steps of STEP, plus every m
in that range at which n_fft jumps to the next 5-smooth length: there the
FFT runs on the most points per mode, so those m decide the crossover.  It
prints one row per swept m and, per boundary condition, the smallest M such
that the FFT side was no slower for every swept m >= M; ``FFT_MIN_MODES``
is set from the larger of the two.  ``--short`` times a few m in one round,
as a check that the sweep runs.

BLAS runs on one thread and the process on one CPU, as in the layered
benchmark.  Each time is the best of ROUNDS alternating rounds, each round
a batch of calls lasting at least a millisecond.

    PYTHONPATH=src python3 benchmarks/bench_transforms.py [--short]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import time

import numpy as np

from wavegalerkin import spectral
from wavegalerkin.nonlinearity import NonlinearitySpec
from wavegalerkin.solver import _galerkin_term
from wavegalerkin.spectral import (
    DIRICHLET,
    PERIODIC_MEAN_ZERO,
    DomainSpec,
    _smooth_at_least,
    build_operator,
    default_grid_points,
)

M_MIN, M_MAX = 128, 1024
STEP = 8  # stride of the regular mode counts; the m where n_fft jumps are always added
ROWS = 2  # stage rows per Galerkin call: one RK4 round
ROUNDS = 5
SHORT_MODES, SHORT_ROUNDS = (128, 256, 512), 1


def swept_modes(bc: str) -> list[int]:
    def n_fft(m):
        # the default grid if the FFT ran at m, whatever FFT_MIN_MODES is
        return _smooth_at_least(default_grid_points(m, bc))

    ms = set(range(M_MIN, M_MAX + 1, STEP)) | {M_MAX}
    ms |= {m for m in range(M_MIN, M_MAX + 1) if n_fft(m) > n_fft(m - 1)}
    return sorted(ms)


def galerkin_terms(bc: str, m: int) -> tuple[dict, dict]:
    """Grid sizes and the dense and FFT Galerkin terms for RK4's blocks at ``m`` modes, whatever ``FFT_MIN_MODES`` is."""
    sizes, terms = {}, {}
    saved = spectral.FFT_MIN_MODES
    try:
        # The default grid and, on the term's build, the transforms follow the constant.
        for name, threshold in (("dense", m + 1), ("fft", m)):
            spectral.FFT_MIN_MODES = threshold
            op = build_operator(DomainSpec(length=1.0, bc=bc), m)
            terms[name] = _galerkin_term(op, NonlinearitySpec(p=4), ROWS)
            sizes[name] = op.grid_points
            assert (op._fft is None) == (name == "dense")
    finally:
        spectral.FFT_MIN_MODES = saved
    return sizes, terms


def call(term, block):
    out = np.empty_like(block)
    term(block, out)
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


def best_us(fns: dict, rounds: int) -> dict:
    """Best per-call time of each callable, alternating them round by round."""
    sizes = {k: batch_size(fn) for k, fn in fns.items()}
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(rounds):
        for k, fn in fns.items():
            n = sizes[k]
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best[k] = min(best[k], (time.perf_counter() - t0) / n * 1e6)
    return best


def sweep(bc: str, ms: list[int], rounds: int) -> list[tuple]:
    rng = np.random.default_rng(0)
    rows = []
    for m in ms:
        n, terms = galerkin_terms(bc, m)
        block = rng.uniform(-1.0, 1.0, (ROWS, m)) / m
        want = call(terms["dense"], block)
        gap = np.linalg.norm(call(terms["fft"], block) - want) / np.linalg.norm(want)
        if not gap <= 1e-12:
            raise SystemExit(f"{bc} m={m}: FFT and dense Galerkin terms differ by {gap:.3e} relative")
        out = np.empty((ROWS, m))
        t = best_us({name: (lambda term=term: term(block, out)) for name, term in terms.items()}, rounds)
        rows.append((m, n["dense"], n["fft"], t["dense"], t["fft"], gap))
    return rows


def crossover(rows: list[tuple]) -> int | None:
    """Smallest swept M with FFT no slower than dense at every swept m >= M."""
    m_cross = None
    for m, _, _, dense_us, fft_us, _ in reversed(rows):
        if fft_us > dense_us:
            break
        m_cross = m
    return m_cross


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--short", action="store_true", help=f"time m in {SHORT_MODES} in {SHORT_ROUNDS} round")
    args = ap.parse_args(argv)
    rounds = SHORT_ROUNDS if args.short else ROUNDS
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"numpy {np.__version__}; FFT_MIN_MODES = {spectral.FFT_MIN_MODES}; best of {rounds} rounds")
    crosses = []
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        ms = list(SHORT_MODES) if args.short else swept_modes(bc)
        rows = sweep(bc, ms, rounds)
        print(f"{'bc':<20}{'m':>6}{'n_dense':>9}{'n_fft':>7}{'dense_us':>11}{'fft_us':>11}{'ratio':>8}{'rel_gap':>10}")
        for m, nd, nf, d, f, gap in rows:
            print(f"{bc:<20}{m:>6}{nd:>9}{nf:>7}{d:>11.1f}{f:>11.1f}{f / d:>8.2f}{gap:>10.1e}")
        m_cross = crossover(rows)
        crosses.append(m_cross)
        slower = [m for m, _, _, d, f, _ in rows if f > d]
        above = [f / d for m, _, _, d, f, _ in rows if m_cross is not None and m >= m_cross]
        print(
            f"{bc}: {len(rows)} mode counts in [{min(ms)}, {max(ms)}]; "
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
