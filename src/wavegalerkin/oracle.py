"""Independent reference computations used by tests.

Everything here is deliberately re-implemented at reduced generality
(built-in kinds only, plain numpy, no shared stepping or transform code
beyond wrapping results in the public Trajectory type), so that a bug in
the production modules cannot certify itself.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .estimates import energy_table
from .nonlinearity import AFFINE, CUBIC, LINEAR, POWER_LAW, ForcingSpec, NonlinearitySpec
from .solver import SolverConfig, Trajectory
from .spectral import DIRICHLET, FFT_MIN_MODES, DomainSpec, build_operator

__all__ = [
    "BERNOULLI",
    "GRONWALL_LINEAR",
    "linear_exact",
    "max_H_error",
    "reference_run",
    "scalar_comparison",
]

GRONWALL_LINEAR = "gronwall_linear"
BERNOULLI = "bernoulli"

SCALAR_DT_DEFAULT = 1e-5


def linear_exact(k: int, lam: float, a0: float, adot0: float, t):
    """Closed-form mode evolution for the linear system a'' = -lambda a.

    ``k`` is the mode index and is carried only for labeling; the dynamics
    depend on lambda alone.  Returns ``(a, adot)`` at the requested times.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    ts = np.asarray(t, dtype=np.float64)
    w = math.sqrt(lam)
    a = a0 * np.cos(w * ts) + adot0 * np.sin(w * ts) / w
    adot = -a0 * w * np.sin(w * ts) + adot0 * np.cos(w * ts)
    if np.ndim(t) == 0:
        return float(a), float(adot)
    return a, adot


def _oracle_grid_points(modes: int, bc: str) -> int:
    """The program's default grid size, computed here on its own terms."""
    n = 2 * modes + 1 if bc == DIRICHLET else 4 * ((modes + 1) // 2) + 1
    if modes < FFT_MIN_MODES:
        return n
    # step up to the first size with no prime factor above 5
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _oracle_nodes(domain: DomainSpec, modes: int) -> np.ndarray:
    """Own construction of the default quadrature grid: midpoints for Dirichlet, left ends for periodic."""
    l = domain.length
    n = _oracle_grid_points(modes, domain.bc)
    return (np.arange(n) + (0.5 if domain.bc == DIRICHLET else 0.0)) * (l / n)


def _oracle_basis(domain: DomainSpec, modes: int):
    """Own construction of eigenvalues, grid, and transform matrices."""
    l = domain.length
    nodes = _oracle_nodes(domain, modes)
    n = nodes.size
    if domain.bc == DIRICHLET:
        freq = np.arange(1, modes + 1) * np.pi / l
        lam = freq * freq
        basis = math.sqrt(2.0 / l) * np.sin(np.outer(nodes, freq))
    else:
        idx = np.arange(modes)
        freq = (idx // 2 + 1) * 2.0 * np.pi / l
        lam = freq * freq
        phase = np.outer(nodes, freq)
        basis = np.where(idx % 2 == 0, np.cos(phase), np.sin(phase)) * math.sqrt(2.0 / l)
    weights = np.full(n, l / n)
    proj = basis.T * weights
    return lam, basis, proj, weights


def _oracle_F(nl: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    if nl.kind == LINEAR:
        return u
    if nl.kind == CUBIC:
        return u * u * u
    if nl.kind == POWER_LAW:
        return np.abs(u) ** (nl.p - 2.0) * u
    raise ValueError("reference_run supports built-in nonlinearity kinds only")


def reference_run(
    domain: DomainSpec,
    nl: NonlinearitySpec,
    fs: ForcingSpec,
    x0_modal,
    x1_modal,
    T: float,
    m_ref: int,
    dt_ref: float,
    sample_stride: int = 1,
) -> Trajectory:
    """High-resolution ground truth for convergence studies.

    Integrates the same modal system at ``m_ref`` modes and step ``dt_ref``
    with an RK4 loop and transforms implemented here, from modal initial
    data zero-padded into the reference basis.  The result is wrapped in
    the public Trajectory type for uniform error measurement.
    """
    cfg = SolverConfig(T=T, dt=dt_ref, sample_stride=sample_stride)
    lam, basis, proj, _ = _oracle_basis(domain, m_ref)
    sqrt_lam = np.sqrt(lam)
    gc = fs.constant * (proj @ np.ones(basis.shape[0])) if fs.kind == AFFINE else None

    def accel(a: np.ndarray, adot: np.ndarray) -> np.ndarray:
        if nl.kind == LINEAR:
            out = -(lam * a)
        else:
            out = -(lam * (proj @ _oracle_F(nl, basis @ a)))
        if fs.kind == AFFINE:
            extra = fs.g1 * a + (fs.g2 * adot) / sqrt_lam
            if gc is not None and fs.constant != 0.0:
                extra = extra + gc
            out = out + extra
        return out

    def pad(coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.float64).ravel()
        if c.size > m_ref:
            raise ValueError("initial data has more modes than m_ref")
        out = np.zeros(m_ref)
        out[: c.size] = c
        return out

    a = pad(x0_modal)
    adot = pad(x1_modal)
    n_steps = cfg.n_steps
    n_rec = n_steps // sample_stride + 1
    a_hist = np.empty((n_rec, m_ref))
    adot_hist = np.empty((n_rec, m_ref))
    rec_steps = np.empty(n_rec, dtype=np.int64)
    a_hist[0] = a
    adot_hist[0] = adot
    rec_steps[0] = 0
    rec = 1
    h = dt_ref
    diverged_step = -1
    ceiling = cfg.blowup_ceiling
    for step in range(1, n_steps + 1):
        k1 = accel(a, adot)
        k2 = accel(a + 0.5 * h * adot, adot + 0.5 * h * k1)
        k3 = accel(a + 0.5 * h * adot + 0.25 * h * h * k1, adot + 0.5 * h * k2)
        k4 = accel(a + h * adot + 0.5 * h * h * k2, adot + h * k3)
        a = a + (h * adot + (h * h / 6.0) * (k1 + k2 + k3))
        adot = adot + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(adot))) or np.max(np.abs(a)) > ceiling:
            a_hist[rec] = a
            adot_hist[rec] = adot
            rec_steps[rec] = step
            rec += 1
            diverged_step = step
            break
        if step % sample_stride == 0:
            a_hist[rec] = a
            adot_hist[rec] = adot
            rec_steps[rec] = step
            rec += 1
    a_hist = a_hist[:rec]
    adot_hist = adot_hist[:rec]
    t = rec_steps[:rec].astype(np.float64) * dt_ref

    op = build_operator(dataclasses.replace(domain, grid_points=None), m_ref)
    tbl = energy_table(op, nl, fs, t, a_hist, adot_hist)
    diverged = diverged_step >= 0
    return Trajectory(
        op=op,
        nl=nl,
        fs=fs,
        cfg=cfg,
        a=a_hist,
        adot=adot_hist,
        energy=tbl,
        diverged=diverged,
        diverged_at=float(diverged_step * dt_ref) if diverged else None,
        backend="oracle",
    )


def max_H_error(traj: Trajectory, ref: Trajectory) -> float:
    """sup over shared sample times of the H distance to the reference.

    Every sample time of ``traj`` must appear in ``ref`` (up to 1e-9);
    reference modes beyond the member resolution count toward the error.
    """
    t = traj.times
    tr = ref.times
    idx = np.searchsorted(tr, t)
    idx = np.clip(idx, 0, tr.size - 1)
    left = np.clip(idx - 1, 0, tr.size - 1)
    use_left = np.abs(tr[left] - t) < np.abs(tr[idx] - t)
    idx = np.where(use_left, left, idx)
    if np.any(np.abs(tr[idx] - t) > 1e-9 * np.maximum(1.0, np.abs(t))):
        raise ValueError("trajectory sample times are not a subset of the reference times")
    m = traj.a.shape[1]
    if ref.a.shape[1] < m:
        raise ValueError("reference must have at least as many modes")
    diff = ref.a[idx, :m] - traj.a
    err_sq = np.sum(diff * diff, axis=1) + np.sum(ref.a[idx, m:] ** 2, axis=1)
    return float(np.sqrt(np.max(err_sq)))


def scalar_comparison(ode: str, params: dict, t_grid, dt: float = SCALAR_DT_DEFAULT) -> np.ndarray:
    """Dense RK4 integration of the scalar bound ODEs.

    ``gronwall_linear``: z' = C0*z + C1 from z0.  ``bernoulli``:
    w' = w - delta*w^r from w0.  Parameters broadcast, so one call can
    integrate many parameter sets in lockstep; the result has shape
    ``(len(t_grid),) + broadcast_shape``.
    """
    ts = np.asarray(t_grid, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be nonnegative and strictly increasing")

    if ode == GRONWALL_LINEAR:
        c0, c1, z = np.broadcast_arrays(
            np.asarray(params["C0"], dtype=np.float64),
            np.asarray(params["C1"], dtype=np.float64),
            np.asarray(params["z0"], dtype=np.float64),
        )
        z = z.copy()

        def rhs(v):
            return c0 * v + c1

    elif ode == BERNOULLI:
        delta, r, z = np.broadcast_arrays(
            np.asarray(params["delta"], dtype=np.float64),
            np.asarray(params["r"], dtype=np.float64),
            np.asarray(params["w0"], dtype=np.float64),
        )
        z = z.copy()

        def rhs(v):
            return v - delta * v ** r

    else:
        raise ValueError(f"unknown ode {ode!r}")

    out = np.empty((ts.size,) + z.shape)
    t_cur = 0.0
    for i, t_target in enumerate(ts):
        span = t_target - t_cur
        if span > 0:
            n = max(1, int(math.ceil(span / dt - 1e-12)))
            h = span / n
            for _ in range(n):
                k1 = rhs(z)
                k2 = rhs(z + 0.5 * h * k1)
                k3 = rhs(z + 0.5 * h * k2)
                k4 = rhs(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur = t_target
        out[i] = z
    return out
