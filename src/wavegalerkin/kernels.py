"""Time-stepping kernels: numba-compiled loops with a numpy fallback.

The compiled path handles the built-in nonlinearity and forcing kinds,
encoded as small integers; custom callables always take the numpy path.
Setting the environment variable ``WAVEGALERKIN_NO_NUMBA`` to a truthy
value forces the numpy path everywhere.  Below ``spectral.FFT_MIN_MODES``
both paths perform the same arithmetic in the same association order, so
trajectories agree to round-off.  At or above it the numpy path transforms
by FFT while the compiled one keeps the dense products, so they agree to
the transforms' round-off instead.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ENV_NO_NUMBA",
    "NL_CUBIC",
    "NL_LINEAR",
    "NL_POWER_LAW",
    "FORCING_AFFINE",
    "FORCING_NONE",
    "NUMBA_AVAILABLE",
    "backend_name",
    "numba_disabled_by_env",
    "run_compiled",
    "run_numpy",
]

NL_LINEAR = 0
NL_POWER_LAW = 1
NL_CUBIC = 2

FORCING_NONE = 0
FORCING_AFFINE = 1

ENV_NO_NUMBA = "WAVEGALERKIN_NO_NUMBA"


def numba_disabled_by_env() -> bool:
    return os.environ.get(ENV_NO_NUMBA, "").strip().lower() in {"1", "true", "yes", "on"}


try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba not installed: njit is the identity and run_compiled runs interpreted
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def deco(fn):
            return fn

        return deco


def backend_name() -> str:
    """Backend the solver will pick for built-in kinds."""
    return "numba" if NUMBA_AVAILABLE and not numba_disabled_by_env() else "numpy"


@njit(cache=True)
def _accel(a, adot, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, out):
    m = a.shape[0]
    if nl_code == NL_LINEAR:
        # F is the identity; skip the grid round-trip.
        for j in range(m):
            out[j] = -lam[j] * a[j]
    else:
        u = np.dot(basis, a)
        if nl_code == NL_CUBIC:
            for i in range(u.shape[0]):
                u[i] = u[i] * u[i] * u[i]
        else:
            for i in range(u.shape[0]):
                u[i] = abs(u[i]) ** pm2 * u[i]
        fm = np.dot(proj, u)
        for j in range(m):
            out[j] = -lam[j] * fm[j]
    if f_code == FORCING_AFFINE:
        for j in range(m):
            out[j] += g1 * a[j] + (g2 * adot[j]) / sqrt_lam[j] + g_const[j]


@njit(cache=True)
def run_compiled(
    a0,
    adot0,
    lam,
    sqrt_lam,
    basis,
    proj,
    nl_code,
    pm2,
    f_code,
    g1,
    g2,
    g_const,
    dt,
    n_steps,
    stride,
    ceiling,
    use_verlet,
):
    m = a0.shape[0]
    max_rec = n_steps // stride + 2
    a_hist = np.empty((max_rec, m))
    adot_hist = np.empty((max_rec, m))
    rec_steps = np.empty(max_rec, dtype=np.int64)
    a = a0.copy()
    adot = adot0.copy()
    k1 = np.empty(m)
    k2 = np.empty(m)
    k3 = np.empty(m)
    k4 = np.empty(m)
    sa = np.empty(m)
    sv = np.empty(m)
    acc = np.empty(m)
    a_hist[0, :] = a
    adot_hist[0, :] = adot
    rec_steps[0] = 0
    n_rec = 1
    diverged_step = -1
    h = dt
    if use_verlet:
        _accel(a, adot, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, acc)
    for step in range(1, n_steps + 1):
        if use_verlet:
            for j in range(m):
                adot[j] += 0.5 * h * acc[j]
            for j in range(m):
                a[j] += h * adot[j]
            _accel(a, adot, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, acc)
            for j in range(m):
                adot[j] += 0.5 * h * acc[j]
        else:
            _accel(a, adot, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, k1)
            for j in range(m):
                sa[j] = a[j] + 0.5 * h * adot[j]
                sv[j] = adot[j] + 0.5 * h * k1[j]
            _accel(sa, sv, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, k2)
            for j in range(m):
                sa[j] = a[j] + 0.5 * h * adot[j] + 0.25 * h * h * k1[j]
                sv[j] = adot[j] + 0.5 * h * k2[j]
            _accel(sa, sv, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, k3)
            for j in range(m):
                sa[j] = a[j] + h * adot[j] + 0.5 * h * h * k2[j]
                sv[j] = adot[j] + h * k3[j]
            _accel(sa, sv, lam, sqrt_lam, basis, proj, nl_code, pm2, f_code, g1, g2, g_const, k4)
            for j in range(m):
                a[j] += h * adot[j] + (h * h / 6.0) * (k1[j] + k2[j] + k3[j])
                adot[j] += (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
        bad = False
        for j in range(m):
            if not (np.isfinite(a[j]) and np.isfinite(adot[j])) or abs(a[j]) > ceiling:
                bad = True
                break
        if bad:
            a_hist[n_rec, :] = a
            adot_hist[n_rec, :] = adot
            rec_steps[n_rec] = step
            n_rec += 1
            diverged_step = step
            break
        if step % stride == 0:
            a_hist[n_rec, :] = a
            adot_hist[n_rec, :] = adot
            rec_steps[n_rec] = step
            n_rec += 1
    return a_hist[:n_rec].copy(), adot_hist[:n_rec].copy(), rec_steps[:n_rec].copy(), diverged_step


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
    """Pure-numpy twin of :func:`run_compiled`.

    ``accel(a, adot) -> ndarray`` evaluates the modal acceleration; custom
    nonlinearities and forcings are closed over by the caller.  It must
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
