"""The fixed-step time-stepping loop on the modal state.

:func:`run_numpy` advances ``(a, adot)`` by RK4 or velocity Verlet, records
every ``stride``-th state, and stops at the first state that leaves the
blow-up ceiling or goes non-finite.  The acceleration at a stage ``(A, V)``
is ``galerkin(A) + g1 A + d V``, with damping ``d = g2/sqrt(lambda)`` only
when ``g2 > 0``; ``g1 A`` lives in the stepping coefficients.

RK4 steps through one stage buffer ``Z``: ``(6, m)``, ``[a, adot, n1, n2,
n3, n4]``, for zero forcing or ``g2 = 0``, and ``(10, m)``, ``[a, adot, n1,
e1, ..., n4, e4]`` with damping rows ``e_i = d V_i``, for ``g2 > 0``.  A
step makes 4 ``galerkin`` calls, 3 stage products (each stage input is a
small matrix times the leading rows of ``Z``), 2 increment products (weight
vectors times the rows they touch, ``Z[1:5]`` and ``Z[2:]`` for zero
forcing) and one in-place addition to the state rows, plus 4 ``multiply``
calls when damped; the textbook expressions take 26 calls for the stage
sums and 3 more per stage for the forcing.  Every call is a ufunc or an
array's bound ``dot``: ``np.dot`` and ``np.matmul`` add numpy's dispatch
layers to the same BLAS product (0.83 against 0.32 us for a stage product
at m=16, numpy 2.4, one Xeon core).
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


def _touched(w) -> slice:
    """The rows from the first to the last nonzero entry of ``w``."""
    nz = np.flatnonzero(w)
    return slice(int(nz[0]), int(nz[-1]) + 1)


def _rk4_coefficients(h: float, g1: float = 0.0, damped: bool = False):
    """Stage matrices and update weights of RK4 in Nystrom form, step ``h``.

    Returns ``c2, c3, c4, wa, wv, a_rows, v_rows``: stage ``i`` is ``c_i @
    Z[:c_i.shape[1]]``, the step ``a += wa @ Z[a_rows]``, ``adot += wv @
    Z[v_rows]``.  Each coefficient is the textbook expression (Hairer,
    Norsett & Wanner, Solving ODEs I, II.14)::

        k2 at (a + h/2 adot,                adot + h/2 k1)
        k3 at (a + h/2 adot + h^2/4 k1,     adot + h/2 k2)
        k4 at (a + h adot + h^2/2 k2,       adot + h k3)
        a    += h adot + h^2/6 (k1 + k2 + k3)
        adot += h/6 k1 + h/3 k2 + h/3 k3 + h/6 k4

    on coefficient rows over ``Z``, with ``k_i = n_i + e_i + g1 A_i``; for
    ``g1 = 0`` every ``k_i`` is a unit row and every coefficient the scalar,
    bit for bit.  Each is cut to the rows its nonzero entries touch, which
    the step has already written (the new ``a`` never reads stage 4).
    """
    eye = np.eye(10 if damped else 6)
    a, v = eye[0], eye[1]

    def k(i, A):
        return eye[2 * i] + eye[2 * i + 1] + g1 * A if damped else eye[i + 1] + g1 * A

    k1 = k(1, a)
    A2, V2 = a + (0.5 * h) * v, v + (0.5 * h) * k1
    k2 = k(2, A2)
    A3, V3 = a + (0.5 * h) * v + (0.25 * h * h) * k1, v + (0.5 * h) * k2
    k3 = k(3, A3)
    A4, V4 = a + h * v + (0.5 * h * h) * k2, v + h * k3
    wa = h * v + (h * h / 6.0) * (k1 + k2 + k3)
    wv = (h / 6.0) * k1 + (h / 3.0) * k2 + (h / 3.0) * k3 + (h / 6.0) * k(4, A4)
    c2, c3, c4 = (np.stack((A, V))[:, : _touched(abs(A) + abs(V)).stop] for A, V in ((A2, V2), (A3, V3), (A4, V4)))
    a_rows, v_rows = _touched(wa), _touched(wv)
    return c2.copy(), c3.copy(), c4.copy(), wa[a_rows].copy(), wv[v_rows].copy(), a_rows, v_rows


# A state that overflows to inf or NaN is caught by the divergence check,
# and a NaN compares false against the ceiling.  The error state is set
# once per call: entering it every step cost as much as the check itself.
@np.errstate(over="ignore", invalid="ignore")
def run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, galerkin, g1=0.0, damping=None):
    """Advance the modal state ``n_steps`` steps of size ``dt``.

    Returns the recorded positions, velocities and step numbers, and the
    step at which the run diverged (``-1`` if it did not).  The states are
    recorded into one ``(2, n_steps // stride + 2, m)`` buffer, the run's
    sample history, and the positions and velocities are C-contiguous views
    of its two planes, not copies.  A run's peak memory is this history
    plus the energy columns and one block of rows.

    ``galerkin(A, out)`` writes the Galerkin term at ``A`` into ``out``
    without writing ``A``.  ``damping`` is an ``m``-vector, or ``None``,
    which velocity Verlet requires.

    RK4's BLAS products sum in another order than the textbook expressions,
    so trajectories agree with them to round-off, not bitwise; two calls
    with the same inputs give the same bits.  Verlet drifts in place and
    kicks by one product over the rows of ``[a, adot, n]`` that its weights
    touch, which is ``h/2 n`` alone, rounded as in the textbook, for ``g1 = 0``.
    """
    damped = damping is not None
    if damped and use_verlet:
        raise ValueError("velocity Verlet takes no damping")
    m = a0.shape[0]
    hist = np.empty((2, n_steps // stride + 2, m))
    c2, c3, c4, wa, wv, a_rows, v_rows = _rk4_coefficients(dt, g1, damped)
    z = np.empty((10 if damped else 6, m))
    state = z[:2]
    a, adot = state
    # Each stage's Galerkin and damping rows and operand, and the update's rows.
    n1, n2, n3, n4 = z[2::2] if damped else z[2:]
    e1, e2, e3, e4 = z[3::2] if damped else (None,) * 4
    z2, z3, z4 = z[: c2.shape[1]], z[: c3.shape[1]], z[: c4.shape[1]]
    da_rows, dv_rows = z[a_rows], z[v_rows]
    state[0] = a0
    state[1] = adot0
    flat = state.reshape(-1)  # a view: the screen reads the state in place
    stage = np.empty((2, m))
    stage_a, stage_v = stage
    inc = np.empty((2, m))
    inc_a, inc_v = inc
    # Output arrays are passed positionally, the drift's coefficient as a
    # 0-d array (both skip per-call conversion), and every product is an
    # array's bound ``dot``.
    add, mul = np.add, np.multiply
    stage2, stage3, stage4, inc_of_a, inc_of_v = c2.dot, c3.dot, c4.dot, wa.dot, wv.dot
    screen = _divergence_screen(ceiling)
    hist[:, 0] = state
    n_rec = 1
    diverged_step = -1
    if use_verlet:
        # Verlet needs no stages: n1 holds the Galerkin term, n2 a product.
        acc, tmp, h_ = n1, n2, np.array(dt)
        w = np.array([0.5 * dt * g1, 0.0, 0.5 * dt])
        kick, kicked = w[_touched(w)].dot, z[_touched(w)]
        galerkin(a, acc)
    for step in range(1, n_steps + 1):
        if use_verlet:
            add(adot, kick(kicked, tmp), adot)
            add(a, mul(adot, h_, tmp), a)
            galerkin(a, acc)
            add(adot, kick(kicked, tmp), adot)
        else:
            galerkin(a, n1)
            if damped:
                mul(damping, adot, e1)
            stage2(z2, stage)
            galerkin(stage_a, n2)
            if damped:
                mul(damping, stage_v, e2)
            stage3(z3, stage)
            galerkin(stage_a, n3)
            if damped:
                mul(damping, stage_v, e3)
            stage4(z4, stage)
            galerkin(stage_a, n4)
            if damped:
                mul(damping, stage_v, e4)
            inc_of_a(da_rows, inc_a)
            inc_of_v(dv_rows, inc_v)
            add(state, inc, state)
        # One dot product screens the state; only a state that fails it
        # (large, non-finite or overflowed) takes the full check, whose
        # verdict is the one recorded.
        if not flat.dot(flat) <= screen:
            if not np.all(np.isfinite(state)) or np.max(np.abs(state[0])) > ceiling:
                hist[:, n_rec] = state
                n_rec += 1
                diverged_step = step
                break
        if step % stride == 0:
            hist[:, n_rec] = state
            n_rec += 1
    # Recorded steps are 0, stride, 2 stride, ..., and the diverged step.
    rec_steps = np.arange(n_rec, dtype=np.int64) * stride
    if diverged_step >= 0:
        rec_steps[-1] = diverged_step
    return hist[0, :n_rec], hist[1, :n_rec], rec_steps, diverged_step
