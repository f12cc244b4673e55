"""The fixed-step time-stepping loop on the modal state.

:func:`run_numpy` advances ``(a, adot)`` by RK4 or velocity Verlet, records
every ``stride``-th state, and stops at the first state that leaves the
blow-up ceiling or goes non-finite.  The acceleration at a stage ``(A, V)``
is ``galerkin(A) + c + g1 A + d V``: the Galerkin term, the constant
forcing's modal row ``c``, and the forcing's linear part, with damping
``d = g2/sqrt(lambda)`` only when ``g2 > 0``.  ``c`` and ``g1 A`` live in
the stepping coefficients, so the Galerkin term is the only function call.

RK4 (in Nystrom form) steps through one stage buffer ``Z``: ``(7, m)``,
``[a, adot, c, n1, n2, n3, n4]``, for ``g2 = 0``, and ``(11, m)``, ``[a,
adot, c, n1, n2, e1, e2, e3, n3, n4, e4]`` with damping rows ``e_i = d
V_i``, for ``g2 > 0``.  ``A2 = a + h/2 adot`` reads no stage, and ``A3``
and ``A4`` read only stages 1 and 2, so a step is two rounds.  In each, one
product of a fixed coefficient matrix with the leading rows of ``Z`` forms
the C-contiguous ``(2, m)`` block ``[A1; A2]`` or ``[A3; A4]``, and one
``galerkin`` call writes its two rows into ``[n1; n2]`` or ``[n3; n4]``.
When damped, ``V2`` and ``V4`` are one product each, ``V3`` is a third row
of round 2's product, and each ``e_i`` is one ``multiply``.  The increments
of ``a`` and ``adot`` are one ``(2, k)`` product over the rows their
weights touch, added to the state rows in one ``add``.  With the cubic F on
dense products (4 calls per ``galerkin``) an undamped step makes 13 numpy
calls and a damped one 19, the divergence screen included.  Every call is a
ufunc or an array's bound ``dot``: ``np.dot`` and ``np.matmul`` add numpy's
dispatch layers to the same BLAS product (0.86 against 0.32 us for a round
product at m=16, numpy 2.4, one Xeon core).
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_numpy"]

# Read only by layerbench/envinfo.py, which records it in each benchmark run.
NUMBA_AVAILABLE = False

# Rows of the stage buffer Z: the state, the constant forcing and each
# stage's Galerkin row n_i and, when damped, damping row e_i.
_A, _V, _C = 0, 1, 2
_N = (3, 4, 5, 6)
_N_DAMPED, _E = (3, 4, 8, 9), (5, 6, 7, 10)

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


def _cut(w):
    """``w``, a vector or a matrix, cut to the columns from its first to its
    last nonzero one, and those columns as a slice of the rows of ``Z``."""
    nz = np.flatnonzero(np.any(np.atleast_2d(w), axis=0))
    rows = slice(int(nz[0]), int(nz[-1]) + 1)
    return w[..., rows].copy(), rows


def _rk4_tableau(h: float, g1: float = 0.0, damped: bool = False):
    """The products of one RK4 step in Nystrom form, step ``h``, over the rows of ``Z``.

    Returns ``round1, round2, vel2, vel4, inc``, each a pair ``(w, rows)``
    whose product is ``w @ Z[rows]``: ``round1`` forms ``[V1; A1; A2]``,
    ``round2`` forms ``[A3; A4]``, with ``V3`` as a third row when damped,
    ``vel2`` and ``vel4`` (``None`` when undamped) form ``V2`` and ``V4``,
    and ``inc`` forms the increments ``[da; dadot]``.  Each coefficient is
    the textbook expression (Hairer, Norsett & Wanner, Solving ODEs I,
    II.14)::

        k1 at (a,                           adot)
        k2 at (a + h/2 adot,                adot + h/2 k1)
        k3 at (a + h/2 adot + h^2/4 k1,     adot + h/2 k2)
        k4 at (a + h adot + h^2/2 k2,       adot + h k3)
        a    += h adot + h^2/6 (k1 + k2 + k3)
        adot += h/6 k1 + h/3 k2 + h/3 k3 + h/6 k4

    on coefficient rows over ``Z``, with ``k_i = n_i + c + g1 A_i + e_i``.
    ``V1`` and ``A1`` are ``adot`` and ``a``, from the coefficients 1 and 0,
    and for ``g1 = 0`` every coefficient on ``a``, ``adot`` and the ``n_i``
    is the scalar, bit for bit.  Each is cut to the rows its nonzero entries
    touch, which the step has already written when it runs.  The new ``a``
    gives stage 4 the weight 0.
    """
    eye = np.eye(11 if damped else 7)
    a, v, c = eye[_A], eye[_V], eye[_C]
    n = eye[list(_N_DAMPED if damped else _N)]

    def k(i, A):
        k_i = n[i] + c + g1 * A
        return k_i + eye[_E[i]] if damped else k_i

    k1 = k(0, a)
    A2, V2 = a + (0.5 * h) * v, v + (0.5 * h) * k1
    k2 = k(1, A2)
    A3, V3 = a + (0.5 * h) * v + (0.25 * h * h) * k1, v + (0.5 * h) * k2
    k3 = k(2, A3)
    A4, V4 = a + h * v + (0.5 * h * h) * k2, v + h * k3
    wa = h * v + (h * h / 6.0) * (k1 + k2 + k3)
    wv = (h / 6.0) * k1 + (h / 3.0) * k2 + (h / 3.0) * k3 + (h / 6.0) * k(3, A4)
    round2 = np.stack((A3, A4, V3) if damped else (A3, A4))
    vel2, vel4 = (_cut(V2), _cut(V4)) if damped else (None, None)
    return _cut(np.stack((v, a, A2))), _cut(round2), vel2, vel4, _cut(np.stack((wa, wv)))


# A state that overflows to inf or NaN is caught by the divergence check,
# and a NaN compares false against the ceiling.  The error state is set
# once per call: entering it every step cost as much as the check itself.
@np.errstate(over="ignore", invalid="ignore")
def run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, galerkin, g1=0.0, damping=None, constant=None):
    """Advance the modal state ``n_steps`` steps of size ``dt``.

    Returns the recorded positions, velocities and step numbers, and the
    step at which the run diverged (``-1`` if it did not).  The states are
    recorded into one ``(2, n_steps // stride + 2, m)`` buffer, the run's
    sample history, and the positions and velocities are C-contiguous views
    of its two planes, not copies.  A run's peak memory is this history
    plus the energy columns and one block of rows.

    ``galerkin(Y, out)`` writes the Galerkin term at each row of the
    C-contiguous block ``Y`` into that row of the C-contiguous ``out``,
    without writing ``Y``; the blocks are ``(2, m)`` for RK4 and ``(1, m)``
    for velocity Verlet.  ``damping`` is an ``m``-vector, or ``None``, which
    velocity Verlet requires, and ``constant`` is the constant forcing's
    modal row, or ``None`` for none.

    RK4's BLAS products sum in another order than the textbook expressions,
    so trajectories agree with them to round-off, not bitwise; two calls
    with the same inputs give the same bits.  Verlet drifts in place and
    kicks by one product over the rows of ``[a, adot, c, n1]`` that its
    weights touch.
    """
    damped = damping is not None
    if damped and use_verlet:
        raise ValueError("velocity Verlet takes no damping")
    m = a0.shape[0]
    hist = np.empty((2, n_steps // stride + 2, m))
    z = np.zeros((11 if damped else 7, m))
    state = z[:2]
    a, adot = state
    state[0] = a0
    state[1] = adot0
    if constant is not None:
        z[_C] = constant
    flat = state.reshape(-1)  # a view: the screen reads the state in place
    # Output arrays are passed positionally, the drift's coefficient as a
    # 0-d array (both skip per-call conversion), and every product is an
    # array's bound ``dot``.
    add, mul = np.add, np.multiply
    screen = _divergence_screen(ceiling)
    hist[:, 0] = state
    n_rec = 1
    diverged_step = -1
    if use_verlet:
        # Verlet needs no stages: row n1 holds the Galerkin term, n2 a product.
        position, acc, tmp, h_ = z[:1], z[_N[0] : _N[0] + 1], z[_N[1]], np.array(dt)
        w, rows = _cut(np.array([0.5 * dt * g1, 0.0, 0.5 * dt, 0.5 * dt]))
        kick, kicked = w.dot, z[rows]
        galerkin(position, acc)
    else:
        (w1, rows1), (w2, rows2), vel2, vel4, (wi, rows_i) = _rk4_tableau(dt, g1, damped)
        round1, round2, increments = w1.dot, w2.dot, wi.dot
        z1, z2, zi = z[rows1], z[rows2], z[rows_i]
        n_rows = _N_DAMPED if damped else _N
        out12, out34 = z[n_rows[0] : n_rows[1] + 1], z[n_rows[2] : n_rows[3] + 1]
        # [V1, A1, A2, A3, A4], and V2, V3 or V4 when damped; [A1; V1] is
        # the state at the step's start.
        stage = np.empty((6 if damped else 5, m))
        start, out1, block1, block2, out2 = stage[1::-1], stage[:3], stage[1:3], stage[3:5], stage[3:]
        inc = np.empty((2, m))
        # The one increment product weights stage 4 by 0 in a's row, which
        # is NaN where stage 4 is not finite.  Stage 4 reaches adot, so such
        # a step diverges, and a's update is retaken from the step's start
        # over the rows it reads, as in the textbook.
        wa, a_rows = _cut(wi[0])
        increment_a, z_a = wa.dot, zi[a_rows]
        if damped:
            velocity = stage[5]
            e1, e2, e3, e4 = (z[i] for i in _E)
            velocity2, velocity4, z_v2, z_v4 = vel2[0].dot, vel4[0].dot, z[vel2[1]], z[vel4[1]]
    for step in range(1, n_steps + 1):
        if use_verlet:
            add(adot, kick(kicked, tmp), adot)
            add(a, mul(adot, h_, tmp), a)
            galerkin(position, acc)
            add(adot, kick(kicked, tmp), adot)
        else:
            round1(z1, out1)
            galerkin(block1, out12)
            if damped:
                mul(damping, adot, e1)
                velocity2(z_v2, velocity)
                mul(damping, velocity, e2)
            round2(z2, out2)
            galerkin(block2, out34)
            if damped:
                mul(damping, velocity, e3)
                velocity4(z_v4, velocity)
                mul(damping, velocity, e4)
            increments(zi, inc)
            add(state, inc, state)
        # One dot product screens the state; only a state that fails it
        # (large, non-finite or overflowed) takes the full check, whose
        # verdict is the one recorded.
        if not flat.dot(flat) <= screen:
            if not np.all(np.isfinite(state)) or np.max(np.abs(state[0])) > ceiling:
                if not use_verlet and not np.all(np.isfinite(a)):
                    state[...] = start
                    add(a, increment_a(z_a), a)
                    add(adot, inc[1], adot)
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
