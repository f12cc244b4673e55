"""The fixed-step time-stepping loop on the modal state.

:func:`run_numpy` advances ``(a, adot)`` by RK4 or velocity Verlet, records
every ``stride``-th state, and stops at the first state that leaves the
blow-up ceiling or goes non-finite.  The acceleration at a stage ``(A, V)``
is ``galerkin(A) + c + g1 A + d V``: the Galerkin term, the constant
forcing's modal row ``c``, and the forcing's linear part, with damping
``d = g2/sqrt(lambda)`` only when ``g2 > 0``.  ``c`` and ``g1 A`` live in
the stepping coefficients, so the Galerkin term is the only function call.

RK4 (in Nystrom form) steps through two stage buffers that alternate: a
step reads one and writes the next step's start into the other.  Each is
``(8, m)``, ``[n4, n3, n2, n1, c, adot, A2, a]``, for ``g2 = 0``, and
``(12, m)``, ``[e4, n4, n3, e3, e2, e1, n2, n1, c, adot, A2, a]`` with
damping rows ``e_i = d V_i``, for ``g2 > 0``.  ``A2 = a + h/2 adot`` reads
no stage, and ``A3`` and ``A4`` read only stages 1 and 2, so a step is two
rounds.  Round 1's C-contiguous ``(2, m)`` block ``[A2; A1]`` is the last
two rows, and one ``galerkin`` call writes it into ``[n2; n1]``; in round
2 one product of a fixed coefficient matrix with the trailing rows forms
``[A4; A3]`` and a second call writes ``[n4; n3]``.  One more product then
forms ``[adot'; A2'; a']``, the new state and the next step's round-1 row
``A2' = a' + h/2 adot'``, straight from the step's rows into the other
buffer, so the step's start stays where it was.  When damped, ``V2`` and
``V4`` are one product each, ``V3`` is a third row of round 2's product,
and each ``e_i`` is one ``multiply``.  With the cubic F on dense products
(4 calls per ``galerkin``) an undamped step makes 11 numpy calls and a
damped one 17, the divergence screen included.  Every call is a ufunc or
an array's bound ``dot``: ``np.dot`` and ``np.matmul`` add numpy's
dispatch layers to the same BLAS product (0.86 against 0.32 us for a round
product at m=16, numpy 2.4, one Xeon core).
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_numpy"]

# Read only by layerbench/envinfo.py, which records it in each benchmark run.
NUMBA_AVAILABLE = False

# Rows of an RK4 stage buffer: each stage's Galerkin row n_i and, when
# damped, damping row e_i, then the constant forcing c and the rows a step
# starts from, adot, A2 and a, counted from the end.  Rows a step writes
# later come first, so that each product, which reads every row from the
# first it needs to a, reads no row the step has not yet written; the
# state comes last, so that a BLAS sum adds a and adot after their
# increments, as the textbook update does.
_C, _V, _A2, _A = -4, -3, -2, -1
_N = (3, 2, 1, 0)
_N_DAMPED, _E = (7, 6, 2, 1), (5, 4, 3, 0)

# The screen is clamped to the largest finite float, so that an overflowed
# ``q = inf`` never passes ``q <= screen``.
_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)


def _divergence_screen(ceiling) -> float:
    """Bound ``s`` such that ``q <= s`` proves the state is inside the ceiling.

    ``q`` is the squared 2-norm of ``(a, adot)``, with RK4's ``A2`` too,
    one dot product.  ``s`` is ``(ceiling/2)^2`` by multiplication (float
    ``**`` raises on overflow), clamped to the largest finite float.  If ``q <= s``, every
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

    Returns ``round2, vel2, vel4, update``, each a pair ``(w, rows)`` whose
    product is ``w @ Z[rows]``: ``round2`` forms ``[A4; A3]``, with ``V3``
    as a third row when damped, ``vel2`` and ``vel4`` (``None`` when
    undamped) form ``V2`` and ``V4``, and ``update`` forms ``[adot'; A2';
    a']``, the new state and the next step's ``A2``.  Each coefficient is
    the textbook expression (Hairer, Norsett & Wanner, Solving ODEs I,
    II.14)::

        k1 at (a,                           adot)
        k2 at (a + h/2 adot,                adot + h/2 k1)
        k3 at (a + h/2 adot + h^2/4 k1,     adot + h/2 k2)
        k4 at (a + h adot + h^2/2 k2,       adot + h k3)
        a'    = a + h adot + h^2/6 (k1 + k2 + k3)
        adot' = adot + h/6 k1 + h/3 k2 + h/3 k3 + h/6 k4
        A2'   = a' + h/2 adot'

    on coefficient rows over ``Z``, with ``k_i = n_i + c + g1 A_i + e_i``
    and every ``A_i`` expanded over ``a``, ``adot`` and the stages, except
    that ``a'`` and ``adot'`` take the weights of ``g1 A_i`` on ``a`` and
    ``adot`` through the ``A2`` row.  For ``g1 = 0`` every coefficient on
    ``a``, ``adot`` and the ``n_i`` is the scalar, bit for bit, and the
    ``A2`` row is read by round 1's Galerkin call alone.  Each is cut to
    the rows its nonzero entries touch, which the step has already written
    when it runs.  ``a'`` gives stage 4 the weight 0.
    """
    eye = np.eye(12 if damped else 8)
    v, a, c = eye[_V], eye[_A], eye[_C]
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
    inc_a = h * v + (h * h / 6.0) * (k1 + k2 + k3)
    inc_v = (h / 6.0) * k1 + (h / 3.0) * k2 + (h / 3.0) * k3 + (h / 6.0) * k(3, A4)
    # g1 A_i weights a and adot in the increments.  Added to the 1 of a' =
    # a + inc_a and adot' = adot + inc_v, such a weight would round the
    # same way at every step, a drift of eps |a| per step; moved onto the
    # row A2 = a + h/2 adot, it keeps its own relative accuracy, and a' and
    # adot' weight a and adot by exactly 1.
    for inc, row, scale in ((inc_a, _A, 1.0), (inc_v, _V, 0.5 * h)):
        inc += (inc[row] / scale) * (eye[_A2] - a - (0.5 * h) * v)
        inc[row] = 0.0
    new_a, new_v = a + inc_a, v + inc_v
    round2 = np.stack((A4, A3, V3) if damped else (A4, A3))
    vel2, vel4 = (_cut(V2), _cut(V4)) if damped else (None, None)
    return _cut(round2), vel2, vel4, _cut(np.stack((new_v, new_a + (0.5 * h) * new_v, new_a)))


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
    for velocity Verlet.  ``damping`` is an ``m``-vector, or ``None``,
    which velocity Verlet requires, and ``constant`` is the constant
    forcing's modal row, or ``None`` for none.

    RK4's BLAS products sum in another order than the textbook expressions,
    and the new state is one product over the step's rows rather than the
    old state plus a rounded increment, so trajectories agree with the
    textbook to round-off, not bitwise; two calls with the same inputs give
    the same bits.  Verlet drifts in place and kicks by one product over
    the rows of ``[a, adot, c, n1]`` that its weights touch.
    """
    damped = damping is not None
    if damped and use_verlet:
        raise ValueError("velocity Verlet takes no damping")
    m = a0.shape[0]
    hist = np.empty((2, n_steps // stride + 2, m))
    # Output arrays are passed positionally, the drift's coefficient as a
    # 0-d array (both skip per-call conversion), and every product is an
    # array's bound ``dot``.
    add, mul = np.add, np.multiply
    if use_verlet:
        # [a, adot, c, n1, tmp]: n1 holds the Galerkin term, tmp a product.
        z = np.zeros((5, m))
        z[0], z[1] = a0, adot0
        if constant is not None:
            z[2] = constant
        a, adot = z[:2]
        position, acc, tmp, h_ = z[:1], z[3:4], z[4], np.array(dt)
        w, rows = _cut(np.array([0.5 * dt * g1, 0.0, 0.5 * dt, 0.5 * dt]))
        kick, kicked = w.dot, z[rows]
        galerkin(position, acc)
        # One buffer: its state rows are (a, adot) at every step's end.
        states = (z[:2], z[:2])
        flats = (z[:2].reshape(-1),) * 2
    else:
        (w2, rows2), vel2, vel4, (wu, rows_u) = _rk4_tableau(dt, g1, damped)
        round2, update = w2.dot, wu.dot
        # a' weights stage 4 by 0, which is NaN where stage 4 is not
        # finite.  Stage 4 reaches adot, so such a step diverges, and a' is
        # retaken from the step's start, over the rows it reads.
        wa, rows_a = _cut(wu[2])
        retake_a = wa.dot
        z = np.zeros((2, 12 if damped else 8, m))
        z[0, _V], z[0, _A] = adot0, a0
        z[0, _A2] = a0 + (0.5 * dt) * adot0
        if constant is not None:
            z[:, _C] = constant
        n1, n2, n3, n4 = _N_DAMPED if damped else _N
        # [A4; A3], and V2, V3 or V4 when damped
        stage = np.empty((3 if damped else 2, m))
        block2, velocity = stage[:2], stage[-1]
        parts = []
        for p in (0, 1):
            # a step of parity p reads buffer 1 - p and writes buffer p
            zr, zw = z[1 - p], z[p]
            views = (zr[_A2:], zr[n2 : n1 + 1], zr[rows2], zr[n4 : n3 + 1])
            if damped:
                e1, e2, e3, e4 = (zr[i] for i in _E)
                views += (zr[_V], e1, zr[vel2[1]], e2, e3, zr[vel4[1]], e4)
            parts.append(views + (zr[rows_u], zw[_V:]))
        if damped:
            velocity2, velocity4 = vel2[0].dot, vel4[0].dot
        # the state (a, adot) in each buffer, and its rows (adot, A2, a)
        # as one flat view, which the screen reads in place
        states = (z[0, _A:_C:-2], z[1, _A:_C:-2])
        flats = (z[0, _V:].reshape(-1), z[1, _V:].reshape(-1))
    screen = _divergence_screen(ceiling)
    hist[:, 0] = states[0]
    n_rec = 1
    diverged_step = -1
    for step in range(1, n_steps + 1):
        p = step & 1
        if use_verlet:
            add(adot, kick(kicked, tmp), adot)
            add(a, mul(adot, h_, tmp), a)
            galerkin(position, acc)
            add(adot, kick(kicked, tmp), adot)
        elif damped:
            block1, out12, z2, out34, v, e1, z_v2, e2, e3, z_v4, e4, zu, new = parts[p]
            galerkin(block1, out12)
            mul(damping, v, e1)
            velocity2(z_v2, velocity)
            mul(damping, velocity, e2)
            round2(z2, stage)
            galerkin(block2, out34)
            mul(damping, velocity, e3)
            velocity4(z_v4, velocity)
            mul(damping, velocity, e4)
            update(zu, new)
        else:
            block1, out12, z2, out34, zu, new = parts[p]
            galerkin(block1, out12)
            round2(z2, block2)
            galerkin(block2, out34)
            update(zu, new)
        # One dot product screens the state; only a state that fails it
        # (large, non-finite or overflowed) takes the full check, whose
        # verdict is the one recorded.
        if not flats[p].dot(flats[p]) <= screen:
            state = states[p]
            if not np.all(np.isfinite(state)) or np.max(np.abs(state[0])) > ceiling:
                if not use_verlet and not np.all(np.isfinite(state[0])):
                    retake_a(z[1 - p, rows_a], state[0])
                hist[:, n_rec] = state
                n_rec += 1
                diverged_step = step
                break
        if step % stride == 0:
            hist[:, n_rec] = states[p]
            n_rec += 1
    # Recorded steps are 0, stride, 2 stride, ..., and the diverged step.
    rec_steps = np.arange(n_rec, dtype=np.int64) * stride
    if diverged_step >= 0:
        rec_steps[-1] = diverged_step
    return hist[0, :n_rec], hist[1, :n_rec], rec_steps, diverged_step
