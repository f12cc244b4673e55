"""The fixed-step time-stepping loop on the modal state.

:func:`run_numpy` advances ``(a, adot)`` by RK4 or velocity Verlet with an
acceleration closure built by ``solver._numpy_accel`` (a Galerkin term
followed by a forcing term, for every kind), records every
``stride``-th state, and stops at the first state that leaves the blow-up
ceiling or goes non-finite.

RK4 steps through one ``(6, m)`` stage buffer ``Z = [a, adot, k1, k2, k3,
k4]``.  Every stage input ``[A_i; V_i]`` is one product of a small
coefficient matrix with the leading rows of ``Z``.  The update is two
products of fixed weight vectors with ``Z[1:5]`` (the increment of ``a``)
and ``Z[2:]`` (that of ``adot``), written into a ``(2, m)`` increment
buffer, and one in-place addition to the state rows of ``Z``.  At small
``m`` the loop is bound by per-call overhead, and this makes the stage sums
6 calls per step where the textbook expressions take 26.

Each of those calls is an array's bound ``dot`` or a ufunc, and so is
every call in the closures of ``solver._numpy_accel`` on dense products.
``np.dot`` passes through numpy's ``__array_function__`` dispatcher and
``np.matmul`` through the gufunc machinery, for the same BLAS product.
With numpy 2.4 at m=16 on one Xeon core (best of 9 x 20,000 calls,
through a Python lambda), a stage product costs 0.83 us as ``np.matmul``
and 0.32 us as ``c2.dot``, an increment 0.63 us as ``np.dot`` and
0.47 us as ``wa.dot``, and the Galerkin term's two products 0.57/0.55 us
as ``np.dot`` and 0.41/0.39 us as ``basis.dot``/``L.dot``; an in-place
``np.add`` of two m-vectors costs 0.33 us.
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


def _rk4_coefficients(h: float):
    """Stage matrices and update weights of RK4 in Nystrom form, step ``h``.

    With ``Z = [a, adot, k1, k2, k3, k4]``, stage ``i`` (2, 3, 4) evaluates
    ``k_i`` at ``C_i @ Z[:i+1]``::

        k2 at (a + h/2 adot,                adot + h/2 k1)
        k3 at (a + h/2 adot + h^2/4 k1,     adot + h/2 k2)
        k4 at (a + h adot + h^2/2 k2,       adot + h k3)

    and the step is ``a += wa @ Z[1:5]``, ``adot += wv @ Z[2:]``, with
    ``wa = [h, h^2/6, h^2/6, h^2/6]`` and ``wv = [h/6, h/3, h/3, h/6]``
    (Hairer, Norsett & Wanner, Solving ODEs I, II.14).  No weight is zero,
    and the new ``a`` never reads ``k4``.  Each matrix spans only the rows
    its stage has already written, so a stale or non-finite row from an
    earlier step is never multiplied.  The increments are summed before
    they meet the state, as in the textbook expressions, so the state is
    rounded once per step; weights ``[1, ...]`` over ``Z[:5]`` and ``Z[1:]``
    would round it at every term.
    """
    c2 = np.array([[1.0, 0.5 * h, 0.0], [0.0, 1.0, 0.5 * h]])
    c3 = np.array([[1.0, 0.5 * h, 0.25 * h * h, 0.0], [0.0, 1.0, 0.0, 0.5 * h]])
    c4 = np.array([[1.0, h, 0.0, 0.5 * h * h, 0.0], [0.0, 1.0, 0.0, 0.0, h]])
    hh_6 = h * h / 6.0
    wa = np.array([h, hh_6, hh_6, hh_6])
    wv = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0])
    return c2, c3, c4, wa, wv


# A state that overflows to inf or NaN is caught by the divergence check,
# and a NaN compares false against the ceiling.  The error state is set
# once per call: entering it every step cost as much as the check itself.
@np.errstate(over="ignore", invalid="ignore")
def run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, accel):
    """Advance the modal state ``n_steps`` steps of size ``dt``.

    Returns the recorded positions, velocities and step numbers, and the
    step at which the run diverged (``-1`` if it did not).

    ``accel(x, out)`` writes the modal acceleration at the stage ``x`` (a
    ``(2, m)`` array ``[a; adot]``) into ``out`` (an ``m``-vector); the
    nonlinearity and forcing are closed over by the caller.  It must not
    write ``x``, and ``out`` never aliases it.  The closures of
    ``solver._numpy_accel`` write ``out`` in place, for every kind.

    RK4 forms the stage sums and the increments inside BLAS products (see
    :func:`_rk4_coefficients`), whose summation order differs from the
    textbook expressions, so trajectories agree with a loop that allocates
    a new array per operation to round-off, not bitwise; two calls with
    the same inputs give the same bits.  Verlet kicks and drifts in place
    with ufunc output arrays, in the textbook association order.
    """
    m = a0.shape[0]
    max_rec = n_steps // stride + 2
    hist = np.empty((max_rec, 2, m))
    rec_steps = np.empty(max_rec, dtype=np.int64)
    z = np.empty((6, m))
    state, k1, k2, k3, k4 = z[:2], z[2], z[3], z[4], z[5]
    # Stage operands, and the rows the increments of a and adot are summed over.
    z3, z4, z5 = z[:3], z[:4], z[:5]
    da_rows, dv_rows = z[1:5], z[2:]
    state[0] = a0
    state[1] = adot0
    flat = state.reshape(-1)  # a view: the screen reads the state in place
    stage = np.empty((2, m))
    inc = np.empty((2, m))
    inc_a, inc_v = inc
    # Output arrays are passed positionally and the Verlet coefficients as
    # 0-d arrays: both skip per-call conversion.  The products are the
    # arrays' bound ``dot``, which skips numpy's dispatch layers.
    add, mul = np.add, np.multiply
    h = dt
    c2, c3, c4, wa, wv = _rk4_coefficients(h)
    stage2, stage3, stage4, inc_of_a, inc_of_v = c2.dot, c3.dot, c4.dot, wa.dot, wv.dot
    screen = _divergence_screen(ceiling)
    hist[0] = state
    rec_steps[0] = 0
    n_rec = 1
    diverged_step = -1
    if use_verlet:
        # Verlet needs no stages: k1 holds the acceleration, k2 a product.
        a, adot = state
        acc, tmp = k1, k2
        h_, half_h = np.array(h), np.array(0.5 * h)
        accel(state, acc)
    for step in range(1, n_steps + 1):
        if use_verlet:
            add(adot, mul(acc, half_h, tmp), adot)
            add(a, mul(adot, h_, tmp), a)
            accel(state, acc)
            add(adot, mul(acc, half_h, tmp), adot)
        else:
            accel(state, k1)
            stage2(z3, stage)
            accel(stage, k2)
            stage3(z4, stage)
            accel(stage, k3)
            stage4(z5, stage)
            accel(stage, k4)
            inc_of_a(da_rows, inc_a)
            inc_of_v(dv_rows, inc_v)
            add(state, inc, state)
        # One dot product screens the state; only a state that fails it
        # (large, non-finite or overflowed) takes the full check, whose
        # verdict is the one recorded.
        if not flat.dot(flat) <= screen:
            if not np.all(np.isfinite(state)) or np.max(np.abs(state[0])) > ceiling:
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
