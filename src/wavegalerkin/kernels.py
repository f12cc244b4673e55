"""The fixed-step time-stepping loop on the modal state.

:func:`run_numpy` advances ``(a, adot)`` by RK4 or velocity Verlet with an
acceleration closure built by ``solver._numpy_accel``, records every
``stride``-th state, and stops at the first state that leaves the blow-up
ceiling or goes non-finite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_numpy"]

# Read only by layerbench/envinfo.py, which records it in each benchmark run.
NUMBA_AVAILABLE = False


# The screen is clamped to the largest finite float, so that an overflowed
# ``q = inf`` never passes ``q <= screen``.
_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)


def _divergence_screen(ceiling) -> float:
    """Bound ``s`` such that ``q <= s`` proves the state is inside the ceiling.

    ``q`` is the squared 2-norm of ``(a, adot)``, one dot product.  ``s``
    is ``(ceiling/2)^2`` by multiplication (float ``**`` raises on
    overflow), clamped to the largest finite float.  If ``q <= s``, every
    entry is finite and every ``|a_j|`` is below ``ceiling``: the factor-4
    margin dwarfs the dot product's relative rounding error of about
    ``2m eps``, and a NaN, an inf or an overflowed square makes ``q`` NaN or
    inf, which fails the comparison.  Where ``(ceiling/2)^2`` is not a
    normal float (a tiny or NaN ceiling), underflowed squares could hide an
    entry, so ``-1.0`` is returned and every step takes the full check.
    """
    half = 0.5 * float(ceiling)
    screen = half * half
    if screen > _FLOAT_MAX:
        return _FLOAT_MAX
    if not screen >= _FLOAT_TINY:
        return -1.0
    return screen


# A state that overflows to inf or NaN is caught by the divergence check,
# and a NaN compares false against the ceiling.  The error state is set
# once per call: entering it every step cost as much as the check itself.
@np.errstate(over="ignore", invalid="ignore")
def run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, accel):
    """Advance the modal state ``n_steps`` steps of size ``dt``.

    Returns the recorded positions, velocities and step numbers, and the
    step at which the run diverged (``-1`` if it did not).

    ``accel(a, adot) -> ndarray`` evaluates the modal acceleration; the
    nonlinearity and forcing are closed over by the caller.  It must
    return a new array that does not alias its arguments: ``a`` and
    ``adot`` are views of buffers that the loop overwrites in place.

    Every stage runs the same floating-point operations in the same
    association order as the textbook expressions (``0.25*h*h*k1`` is
    ``((0.25*h)*h)*k1``), so the trajectory is bitwise that of a loop that
    allocates a new array per operation; only the shared subexpressions
    ``a + (0.5*h)*adot`` and ``h*adot`` are computed once.
    """
    m = a0.shape[0]
    max_rec = n_steps // stride + 2
    hist = np.empty((max_rec, 2, m))
    rec_steps = np.empty(max_rec, dtype=np.int64)
    state = np.empty((2, m))
    state[0] = a0
    state[1] = adot0
    a, adot = state
    flat = state.reshape(-1)
    sa = np.empty(m)  # stage argument for a
    sv = np.empty(m)  # stage argument for adot
    t1 = np.empty(m)
    t2 = np.empty(m)
    # Output arrays are passed positionally and the coefficients as 0-d
    # arrays: both skip per-call conversion, and neither changes a bit.
    add, mul = np.add, np.multiply
    h = dt
    h_, two = np.array(h), np.array(2.0)
    half_h = np.array(0.5 * h)
    quarter_hh = np.array(0.25 * h * h)
    half_hh = np.array(0.5 * h * h)
    hh_6 = np.array(h * h / 6.0)
    h_6 = np.array(h / 6.0)
    screen = _divergence_screen(ceiling)
    hist[0] = state
    rec_steps[0] = 0
    n_rec = 1
    diverged_step = -1
    acc = accel(a, adot) if use_verlet else None
    for step in range(1, n_steps + 1):
        if use_verlet:
            add(adot, mul(acc, half_h, t1), adot)
            add(a, mul(adot, h_, t1), a)
            acc = accel(a, adot)
            add(adot, mul(acc, half_h, t1), adot)
        else:
            k1 = accel(a, adot)
            add(a, mul(adot, half_h, t1), sa)  # a + (h/2) adot, reused by k3
            add(adot, mul(k1, half_h, sv), sv)
            k2 = accel(sa, sv)
            add(sa, mul(k1, quarter_hh, t1), sa)
            add(adot, mul(k2, half_h, sv), sv)
            k3 = accel(sa, sv)
            mul(adot, h_, t2)  # h adot, reused by the update of a
            add(add(a, t2, sa), mul(k2, half_hh, t1), sa)
            add(adot, mul(k3, h_, sv), sv)
            k4 = accel(sa, sv)
            add(add(k1, k2, t1), k3, t1)
            add(a, add(t2, mul(t1, hh_6, t1), t1), a)
            add(add(k1, mul(k2, two, t1), t1), mul(k3, two, t2), t1)
            add(t1, k4, t1)
            add(adot, mul(t1, h_6, t1), adot)
        # One dot product screens the state; only a state that fails it
        # (large, non-finite or overflowed) takes the full check, whose
        # verdict is the one recorded.
        if not flat.dot(flat) <= screen:
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(adot))) or np.max(np.abs(a)) > ceiling:
                hist[n_rec] = state
                rec_steps[n_rec] = step
                n_rec += 1
                diverged_step = step
                break
        if step % stride == 0:
            hist[n_rec] = state
            rec_steps[n_rec] = step
            n_rec += 1
    return hist[:n_rec, 0].copy(), hist[:n_rec, 1].copy(), rec_steps[:n_rec].copy(), diverged_step
