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


# A state that overflows to inf or NaN is caught by the divergence check,
# and a NaN compares false against the ceiling.  The error state is set
# once per call: entering it every step cost as much as the check itself.
@np.errstate(over="ignore", invalid="ignore")
def run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, accel):
    """Pure-numpy twin of :func:`run_compiled`.

    ``accel(a, adot) -> ndarray`` evaluates the modal acceleration; custom
    nonlinearities and forcings are closed over by the caller.
    """
    m = a0.shape[0]
    max_rec = n_steps // stride + 2
    a_hist = np.empty((max_rec, m))
    adot_hist = np.empty((max_rec, m))
    rec_steps = np.empty(max_rec, dtype=np.int64)
    a = a0.copy()
    adot = adot0.copy()
    a_hist[0] = a
    adot_hist[0] = adot
    rec_steps[0] = 0
    n_rec = 1
    diverged_step = -1
    h = dt
    acc = accel(a, adot) if use_verlet else None
    for step in range(1, n_steps + 1):
        if use_verlet:
            adot = adot + 0.5 * h * acc
            a = a + h * adot
            acc = accel(a, adot)
            adot = adot + 0.5 * h * acc
        else:
            k1 = accel(a, adot)
            k2 = accel(a + 0.5 * h * adot, adot + 0.5 * h * k1)
            k3 = accel(a + 0.5 * h * adot + 0.25 * h * h * k1, adot + 0.5 * h * k2)
            k4 = accel(a + h * adot + 0.5 * h * h * k2, adot + h * k3)
            a = a + (h * adot + (h * h / 6.0) * (k1 + k2 + k3))
            adot = adot + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = not (np.all(np.isfinite(a)) and np.all(np.isfinite(adot))) or np.max(np.abs(a)) > ceiling
        if bad:
            a_hist[n_rec] = a
            adot_hist[n_rec] = adot
            rec_steps[n_rec] = step
            n_rec += 1
            diverged_step = step
            break
        if step % stride == 0:
            a_hist[n_rec] = a
            adot_hist[n_rec] = adot
            rec_steps[n_rec] = step
            n_rec += 1
    return a_hist[:n_rec].copy(), adot_hist[:n_rec].copy(), rec_steps[:n_rec].copy(), diverged_step
