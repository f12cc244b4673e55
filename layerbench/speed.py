"""Machine-speed reference for normalising wall times on a shared host.

On a shared virtual machine the same code runs up to ~2x slower for
seconds to minutes at a time while neighbours are busy, and the slowdown
differs by resource: interpreter-bound work slows most, memory-streaming
BLAS work least.  In a four-minute test with one BLAS thread and 10 s
windows, the spread (quartile distance over median) of an m=16 stepping
loop fell from 0.22 to 0.03 when divided by an interpreter kernel timed
next to it, and that of an m=512 loop from 0.05 to 0.02 when divided by a
memory kernel; dividing by the other kernel made each worse.

Slow phases start and end within seconds, so the pairing must be tight:
the benchmark times two fixed kernels (plain Python and numpy, never the
program) between invocations, at least every ``CHUNK_S`` of measured work,
and scales each chunk by the kernels timed just before and after it:

    scaled = wall * (NOMINAL_S / interp_s) ** w * (NOMINAL_S / memory_s) ** (1 - w)

where ``w`` is the workload's interpreter-bound share (``workloads.py``).
``NOMINAL_S`` only fixes the unit: a scaled second is a second at the speed
where each kernel takes ``NOMINAL_S``.  The scaling removes most, not all,
of the drift, because no small kernel slows exactly like the program.  Raw
wall times are kept in the result record.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

NOMINAL_S = 0.003
CHUNK_S = 0.5

_RNG = np.random.default_rng(20161203)
_VALUES = _RNG.standard_normal(1400).tolist()
_SMALL = _RNG.standard_normal((33, 16)) / 6.0
_SMALL_VEC = _RNG.standard_normal(16)
# 1025 x 512 float64: the same 4.2 MB shape the widest workload streams.
_MATRIX = _RNG.standard_normal((1025, 512))
_VECTOR = _RNG.standard_normal(512)


def _interp_kernel() -> None:
    """A Python loop of small numpy calls, then float formatting and JSON."""
    x = _SMALL_VEC
    for _ in range(400):
        x = np.tanh(_SMALL.T @ (_SMALL @ x)) + 0.5 * x
    rows = [",".join(f"{v:.17g}" for v in _VALUES[i : i + 8]) for i in range(0, len(_VALUES), 8)]
    json.dumps([{"i": i, "v": v, "r": rows[i // 8]} for i, v in enumerate(_VALUES[::4])])


def _memory_kernel() -> None:
    """Products with a matrix larger than L2: memory-streaming BLAS work."""
    for _ in range(8):
        _MATRIX.T @ (_MATRIX @ _VECTOR)


def _time(fn, repeats: int = 3) -> float:
    """Fastest of a few runs: the machine's current speed, without the
    one-off cost of a preemption or of refilling caches after the workload."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


class SpeedProbe:
    """Kernel timings around measured intervals, and the factor they imply."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((_time(_interp_kernel), _time(_memory_kernel)))

    def scaled(self, seconds: float, interpreter_share: float) -> float:
        """Sample now and scale ``seconds`` measured since the previous sample."""
        self.sample()
        return seconds * self.factor(interpreter_share)

    def factor(self, interpreter_share: float) -> float:
        """Scale for the interval between the last two samples."""
        (p0, m0), (p1, m1) = self.samples[-2:]
        interp = math.sqrt(p0 * p1)
        memory = math.sqrt(m0 * m1)
        w = interpreter_share
        return (NOMINAL_S / interp) ** w * (NOMINAL_S / memory) ** (1.0 - w)
