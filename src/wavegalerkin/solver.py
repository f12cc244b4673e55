"""Galerkin ODE assembly and fixed-step time integration.

Projecting the wave equation onto the first ``m`` eigenfunctions gives the
modal system ``a_j'' = -lambda_j <F(x_m), e_j> + <g(x_m, B y_t), e_j>``
where ``x_m`` has coefficients ``a`` and the velocity channel seen by the
forcing has coefficients ``adot_k / sqrt(lambda_k)``.  The stepper is fixed
dt (RK4 by default, velocity Verlet for velocity-independent forcing) with
blow-up detection: user-supplied nonlinearities may break the structural
assumptions, and divergence must be observable rather than a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .estimates import EnergyTable, energy_table
from .nonlinearity import (
    AFFINE,
    LINEAR,
    ForcingSpec,
    NonlinearitySpec,
    F_on_grid,
    constant_modal,
    forcing_modal_batch,
    pointwise_F,
)
from .spectral import OperatorSpec, from_grid, grid_to_modes, modes_to_grid, transform_pair

__all__ = [
    "RK4",
    "STORMER_VERLET",
    "ProjectedInitialData",
    "SolverConfig",
    "State",
    "Trajectory",
    "acceleration",
    "initial_state_from_modal",
    "integrate",
    "project_initial_data",
]

RK4 = "rk4"
STORMER_VERLET = "stormer_verlet"
INTEGRATORS = (RK4, STORMER_VERLET)

BLOWUP_CEILING_DEFAULT = 1e12

# Relative slack when checking that T is a whole number of steps.
_TIME_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integration plan.

    ``T`` must be a whole multiple of ``dt`` and the step count a whole
    multiple of ``sample_stride``, so the sample set always contains both
    t=0 and t=T; ``T = 0`` is allowed and produces the single initial
    sample.  Velocity Verlet is rejected later when the forcing depends on
    velocity (its acceleration evaluation sits at the half step).
    """

    T: float
    dt: float
    integrator: str = RK4
    sample_stride: int = 1
    blowup_ceiling: float = BLOWUP_CEILING_DEFAULT

    def __post_init__(self) -> None:
        for name in ("T", "dt", "blowup_ceiling"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(v))
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T > 0 and self.dt > self.T * (1.0 + _TIME_GRID_RTOL):
            raise ValueError("dt must not exceed T")
        if not math.isfinite(self.T / self.dt):
            raise ValueError("T/dt overflows a float")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if not isinstance(self.sample_stride, int) or isinstance(self.sample_stride, bool) or self.sample_stride < 1:
            raise ValueError("sample_stride must be a positive int")
        if self.blowup_ceiling <= 0:
            raise ValueError("blowup_ceiling must be positive")
        n = self.n_steps
        if abs(n * self.dt - self.T) > _TIME_GRID_RTOL * max(1.0, self.T):
            raise ValueError("T must be a whole number of dt steps")
        if n % self.sample_stride != 0:
            raise ValueError("step count T/dt must be a whole number of sample strides")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True, eq=False)
class State:
    """Modal positions and velocities at one time.

    Entries are finite for anything fed into :func:`integrate`; the terminal
    sample of a diverged trajectory may carry non-finite values for
    diagnosis.
    """

    a: np.ndarray
    adot: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.a, dtype=np.float64)
        adot = np.ascontiguousarray(self.adot, dtype=np.float64)
        if a.ndim != 1 or a.shape != adot.shape:
            raise ValueError("a and adot must be 1-D arrays of equal length")
        a.setflags(write=False)
        adot.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "adot", adot)
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True)
class ProjectedInitialData:
    """Initial state plus the L2 norms of what truncation discarded."""

    state: State
    x0_tail_norm: float
    x1_tail_norm: float


def project_samples(samples, op: OperatorSpec) -> tuple[np.ndarray, float]:
    """Coefficients of grid samples on the retained modes, and the tail norm.

    The tail norm estimates ``||u - P_m u||`` by comparing the quadrature
    of ``u^2`` with the retained coefficient energy.
    """
    u = np.asarray(samples, dtype=np.float64)
    coeffs = from_grid(u, op).coeffs
    total = float(op.weights @ (u * u))
    kept = float(coeffs @ coeffs)
    return coeffs, math.sqrt(max(total - kept, 0.0))


def fit_modal(coeffs, op: OperatorSpec) -> tuple[np.ndarray, float]:
    """Truncate or zero-pad coefficients to the retained modes, with the tail norm.

    Dropped coefficients are exactly the discarded L2 mass for orthonormal
    modes.
    """
    c = np.asarray(coeffs, dtype=np.float64).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("modal coefficients must be finite")
    if c.size >= op.modes:
        return c[: op.modes].copy(), float(np.linalg.norm(c[op.modes :]))
    out = np.zeros(op.modes)
    out[: c.size] = c
    return out, 0.0


def project_initial_data(x0_samples, x1_samples, op: OperatorSpec) -> ProjectedInitialData:
    """Spectral truncation of sampled initial data to the retained modes.

    The tail norms (see :func:`project_samples`) quantify how much of the
    supplied data the discretization cannot represent.
    """
    a, tail0 = project_samples(x0_samples, op)
    adot, tail1 = project_samples(x1_samples, op)
    return ProjectedInitialData(state=State(a=a, adot=adot, t=0.0), x0_tail_norm=tail0, x1_tail_norm=tail1)


def initial_state_from_modal(coeffs0, coeffs1, op: OperatorSpec) -> ProjectedInitialData:
    """Initial state from coefficient lists, truncating or zero-padding."""
    a, tail0 = fit_modal(coeffs0, op)
    adot, tail1 = fit_modal(coeffs1, op)
    return ProjectedInitialData(state=State(a=a, adot=adot, t=0.0), x0_tail_norm=tail0, x1_tail_norm=tail1)


def acceleration(state: State, op: OperatorSpec, nl: NonlinearitySpec, fs: ForcingSpec) -> np.ndarray:
    """Reference modal acceleration from the batch evaluators the energy table uses."""
    w = state.a if nl.kind == LINEAR else grid_to_modes(F_on_grid(nl, modes_to_grid(state.a, op)), op)
    return -(op.eigenvalues * w) + forcing_modal_batch(fs, op, state.a, state.adot)[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution with energy records and provenance.

    ``a`` and ``adot`` hold one row per sample; times are strictly
    increasing starting at 0.  ``diverged`` marks a run halted by the
    blow-up ceiling, in which case the final row is the offending state and
    ``diverged_at`` its time.
    """

    op: OperatorSpec
    nl: NonlinearitySpec
    fs: ForcingSpec
    cfg: SolverConfig
    a: np.ndarray
    adot: np.ndarray
    energy: EnergyTable
    diverged: bool = False
    diverged_at: float | None = None
    backend: str = "numpy"

    def __len__(self) -> int:
        return int(self.a.shape[0])

    @property
    def times(self) -> np.ndarray:
        return self.energy.t

    @property
    def final_state(self) -> State:
        i = len(self) - 1
        return State(a=self.a[i], adot=self.adot[i], t=float(self.energy.t[i]))


def _stepping_terms(op: OperatorSpec, nl: NonlinearitySpec, fs: ForcingSpec):
    """The acceleration ``galerkin(A) + g1 A + damping * V`` as :func:`kernels.run_numpy` takes it.

    ``damping`` is ``g2/sqrt(lambda)``, or ``None`` for ``g2 = 0``.
    """
    damping = fs.g2 / op.sqrt_eigenvalues if fs.velocity_dependent else None
    return _galerkin_term(op, nl, fs), fs.g1, damping


def _galerkin_term(op: OperatorSpec, nl: NonlinearitySpec, fs: ForcingSpec):
    """``galerkin(a, out)``: writes ``-lambda P F(B a)`` plus the constant forcing into ``out``.

    ``a`` is a stage's modal position, which is only read.  The linear
    kind's term is ``-lambda a``.  On dense products every other ``F``,
    custom included, has ``-lambda``, ``P`` and the constant forcing folded
    into one matrix ``L`` over ``S = [F(u); 1]``: a call is ``u = B a``,
    ``F`` into ``S`` and ``out = L S``, both products the matrices' bound
    ``dot`` (``np.dot`` would add its dispatcher to each).  The FFT pair
    samples, applies ``F`` and projects through ``transform_pair``.  The
    rest of the affine forcing is the stepping loop's.
    """
    neg_lam = -np.ascontiguousarray(op.eigenvalues)
    constant = fs.constant if fs.kind == AFFINE else 0.0
    gc = constant * constant_modal(op)
    F = pointwise_F(nl)
    mul, add = np.multiply, np.add

    if nl.kind == LINEAR:

        def term(a, out):
            mul(neg_lam, a, out)

    elif op._fft is None:
        basis = op.basis
        n = basis.shape[0]
        L = np.ascontiguousarray(np.hstack((neg_lam[:, None] * op.projection, gc[:, None])))
        S = np.ones(n + 1)  # the last entry, under the constant forcing, stays 1
        Fu = S[:n]
        u = np.empty(n)
        sample, fold = basis.dot, L.dot

        def galerkin(a, out):
            sample(a, u)
            F(u, Fu)
            fold(S, out)

        return galerkin

    else:
        # Looked up here so that tests can patch it.
        sample, project = transform_pair(op)
        buf = np.empty(op.grid_points)

        def term(a, out):
            mul(neg_lam, project(F(sample(a), buf)), out)

    if constant == 0.0:
        return term

    def galerkin(a, out):
        term(a, out)
        add(out, gc, out)

    return galerkin


def integrate(
    initial: State,
    cfg: SolverConfig,
    op: OperatorSpec,
    nl: NonlinearitySpec,
    fs: ForcingSpec,
) -> Trajectory:
    """Advance the modal system and return the sampled trajectory.

    Every kind steps on :func:`kernels.run_numpy` with the terms from
    :func:`_stepping_terms`.  If ``||a||_inf`` exceeds the blow-up ceiling (or
    goes non-finite) the run stops early, records the offending state, and
    flags the trajectory as diverged at that time.
    """
    if initial.a.shape != (op.modes,):
        raise ValueError(f"initial state has {initial.a.shape[0]} modes, operator has {op.modes}")
    if not (np.all(np.isfinite(initial.a)) and np.all(np.isfinite(initial.adot))):
        raise ValueError("initial state must be finite")
    if initial.t != 0.0:
        raise ValueError("trajectories start at t = 0")
    use_verlet = cfg.integrator == STORMER_VERLET
    if use_verlet and fs.velocity_dependent:
        raise ValueError("stormer_verlet requires velocity-independent forcing (g2 = 0)")

    a_hist, adot_hist, rec_steps, diverged_step = kernels.run_numpy(
        np.ascontiguousarray(initial.a),
        np.ascontiguousarray(initial.adot),
        cfg.dt,
        cfg.n_steps,
        cfg.sample_stride,
        cfg.blowup_ceiling,
        use_verlet,
        *_stepping_terms(op, nl, fs),
    )

    t = rec_steps.astype(np.float64) * cfg.dt
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
        diverged_at=float(diverged_step * cfg.dt) if diverged else None,
    )
