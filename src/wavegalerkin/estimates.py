"""Energy bookkeeping and a-priori bounds as runtime monitors.

The solved system has an exact semi-discrete energy identity: with
``y = A^{-1} x``, the quantity ``E = (1/2)||B y_t||^2 + Phi(x)`` changes at
rate ``<g, y_t>``.  From the structural constants this module derives two
closed-form dominating curves — an exponential Gronwall envelope valid for
any admissible forcing, and for the unforced ``p > 2`` case a Bernoulli-type
decay bound on ``||By||^2`` with a finite absorbing radius — and checks a
sampled trajectory against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nonlinearity import ZERO, ForcingSpec, NonlinearitySpec, forcing_modal_batch, potential_batch, worst_margin
from .spectral import OperatorSpec

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trajectory

__all__ = [
    "DecayParams",
    "EnergyRecord",
    "EnergyTable",
    "GronwallParams",
    "MonitorCheck",
    "MonitorReport",
    "MonitorTolerances",
    "absorbing_radius",
    "comparison_rewrite_cap",
    "decay_bound",
    "derive_decay",
    "derive_gronwall",
    "embedding_constant",
    "energy_table",
    "gronwall_envelope",
    "identity_residuals",
    "monitor",
    "sample_table",
]

ALL_CHECKS = ("energy_identity", "gronwall", "conservation", "decay")


@dataclass(frozen=True)
class EnergyRecord:
    """Energy split at one sample time.

    ``kinetic`` is (1/2)*sum(adot_k^2/lambda_k), ``potential`` is Phi(x),
    ``by_norm_sq`` is sum(a_k^2/lambda_k), and ``forcing_power`` is the
    pairing <g, y_t> = sum(g_k*adot_k/lambda_k).  Entries are finite except
    on the terminal sample of a diverged trajectory.
    """

    t: float
    kinetic: float
    potential: float
    energy: float
    by_norm_sq: float
    forcing_power: float


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """Columnar energy records for a whole trajectory."""

    t: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    energy: np.ndarray
    by_norm_sq: np.ndarray
    forcing_power: np.ndarray

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def row(self, i: int) -> EnergyRecord:
        return EnergyRecord(
            t=float(self.t[i]),
            kinetic=float(self.kinetic[i]),
            potential=float(self.potential[i]),
            energy=float(self.energy[i]),
            by_norm_sq=float(self.by_norm_sq[i]),
            forcing_power=float(self.forcing_power[i]),
        )


def energy_table(
    op: OperatorSpec,
    nl: NonlinearitySpec,
    fs: ForcingSpec,
    t: np.ndarray,
    a_hist: np.ndarray,
    adot_hist: np.ndarray,
) -> EnergyTable:
    """Vectorized energy records for sampled modal histories."""
    lam = op.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * np.sum(adot_hist * adot_hist / lam[None, :], axis=1)
        by_norm_sq = np.sum(a_hist * a_hist / lam[None, :], axis=1)
        potential = potential_batch(a_hist, op, nl)
        g = forcing_modal_batch(fs, op, a_hist, adot_hist)
        forcing_power = np.sum(g * adot_hist / lam[None, :], axis=1)
        energy = kinetic + potential
    return EnergyTable(
        t=np.asarray(t, dtype=np.float64),
        kinetic=kinetic,
        potential=potential,
        energy=energy,
        by_norm_sq=by_norm_sq,
        forcing_power=forcing_power,
    )


def embedding_constant(op: OperatorSpec, p: float) -> float:
    """Hoelder constant of L^p into L^2 on the interval: l^((p-2)/(2p))."""
    return float(op.domain.length ** ((p - 2.0) / (2.0 * p)))


@dataclass(frozen=True)
class GronwallParams:
    """Constants of the linear differential inequality E' <= C0*E + C1.

    ``c_tilde`` realizes ``||x||_H^2 <= c_tilde*(Phi(x) + 1)``; ``E_init``
    is ``||B y_t(0)||^2 + 2*Phi(x(0))``, twice the initial energy.
    """

    C0: float
    C1: float
    c_tilde: float
    E_init: float

    def __post_init__(self) -> None:
        for name in ("C0", "C1", "c_tilde", "E_init"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))
        if self.C0 < 0 or self.C1 < 0:
            raise ValueError("C0 and C1 must be nonnegative")
        if self.c_tilde <= 0:
            raise ValueError("c_tilde must be positive")


def derive_gronwall(
    nl: NonlinearitySpec,
    fs: ForcingSpec,
    op: OperatorSpec,
    initial: EnergyRecord,
) -> GronwallParams:
    """Envelope constants from the structural constants and initial energy.

    Young's inequality on the forcing power gives ``C0 = max(2*c_tilde*g1^2,
    4*g2^2 + 2)`` and ``C1 = 2*g1^2*c_tilde + 2*g0^2`` with ``c_tilde =
    c_emb^2 * max(p/b0, 1)``; zero forcing short-circuits to ``C0 = C1 = 0``
    (exact conservation).
    """
    if nl.b0 <= 0:
        raise ValueError("coercivity constant b0 must be positive")
    c_emb = embedding_constant(op, nl.p)
    c_tilde = c_emb * c_emb * max(nl.p / nl.b0, 1.0)
    e_init = 2.0 * initial.energy
    if fs.kind == ZERO:
        return GronwallParams(C0=0.0, C1=0.0, c_tilde=c_tilde, E_init=e_init)
    c0 = max(2.0 * c_tilde * fs.g1 ** 2, 4.0 * fs.g2 ** 2 + 2.0)
    c1 = 2.0 * fs.g1 ** 2 * c_tilde + 2.0 * fs.g0 ** 2
    return GronwallParams(C0=c0, C1=c1, c_tilde=c_tilde, E_init=e_init)


def gronwall_envelope(gp: GronwallParams, t):
    """Closed-form solution of z' = C0*z + C1 from z(0) = E_init.

    ``e^(C0 t) * E_init + (C1/C0)(e^(C0 t) - 1)``, with the C0 -> 0 limit
    ``E_init + C1*t``.  Vectorized over ``t``.
    """
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0):
        raise ValueError("t must be nonnegative")
    if gp.C0 == 0.0:
        out = gp.E_init + gp.C1 * ts
    else:
        growth = np.exp(gp.C0 * ts)
        out = growth * gp.E_init + (gp.C1 / gp.C0) * (growth - 1.0)
    return out if isinstance(t, np.ndarray) else float(out)


@dataclass(frozen=True)
class DecayParams:
    """Constants of the Bernoulli-type inequality behind the decay bound.

    ``r = p/2 > 1``; ``c = 2/c0`` with ``c0`` the coercivity-to-potential
    constant; ``C`` is the conserved ``||B y_t(0)||^2 + 2*Phi(x(0))``;
    ``delta`` must satisfy ``delta <= (k-1)/(k^r * C^r)`` when ``C > 0``
    (and be small against ``c`` for the comparison rewrite to apply;
    :func:`derive_decay` picks such a default).
    """

    r: float
    c: float
    C: float
    k: float = 2.0
    delta: float = 0.5

    def __post_init__(self) -> None:
        for name in ("r", "c", "C", "k", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))
        if self.r <= 1.0:
            raise ValueError("r must exceed 1 (requires p > 2)")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.C < 0:
            raise ValueError("C must be nonnegative")
        if self.k <= 1.0:
            raise ValueError("k must exceed 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.C > 0.0:
            cap = _delta_cap(self.k, self.r, self.C)
            if self.delta > cap * (1.0 + 1e-12):
                raise ValueError(f"delta={self.delta:g} exceeds (k-1)/(k^r C^r) = {cap:g}")


def _delta_cap(k: float, r: float, big_c: float) -> float:
    """``(k-1)/(k^r C^r)`` for ``C > 0``, without raising.

    ``0.0`` when ``k^r C^r`` overflows (then no ``delta > 0`` meets the cap),
    ``inf`` when it underflows to 0 (then the cap binds nothing).
    """
    try:
        scale = k ** r * big_c ** r
    except OverflowError:
        return 0.0
    return (k - 1.0) / scale if scale > 0.0 else math.inf


def comparison_rewrite_cap(nl: NonlinearitySpec, op: OperatorSpec, delta: float | None = None) -> tuple[float, float]:
    """``(c, c/2^(r-1))``: the decay constant ``c = 2/(p c_emb^p)`` and its cap on ``delta``.

    Both depend only on ``p`` and the interval length, so a given ``delta``
    can be checked before any stepping: one above the cap (beyond 1e-12
    relative slack) raises ``ValueError`` naming it.
    """
    c = 2.0 / (nl.p * embedding_constant(op, nl.p) ** nl.p)
    c_cap = c / 2.0 ** (nl.p / 2.0 - 1.0)
    if delta is not None and delta > c_cap * (1.0 + 1e-12):
        raise ValueError(f"monitors.delta={delta:g} exceeds the decay comparison's cap c/2^(r-1) = {c_cap:g}")
    return c, c_cap


def derive_decay(
    nl: NonlinearitySpec,
    fs: ForcingSpec,
    op: OperatorSpec,
    initial: EnergyRecord,
    k: float = 2.0,
    delta: float | None = None,
) -> DecayParams | None:
    """Decay constants for the unforced coercive case.

    Requires zero forcing and ``p > 2``.  The default ``delta`` is half of
    ``min((k-1)/(k^r C^r), 1/2)`` (all of it when ``C = 0``), additionally
    capped by ``c/2^(r-1)`` so the comparison rewrite is valid; a given
    ``delta`` must meet that cap too.  Returns ``None`` when ``k^r C^r``
    overflows: no ``delta > 0`` then satisfies the first cap, so there is
    no decay bound to check.
    """
    if fs.kind != ZERO:
        raise ValueError("decay bound requires zero forcing")
    if nl.p <= 2.0:
        raise ValueError("decay bound requires p > 2")
    r = nl.p / 2.0
    big_c = 2.0 * initial.energy
    cap = _delta_cap(k, r, big_c) if big_c > 0.0 else math.inf
    if cap == 0.0:
        return None
    c, c_cap = comparison_rewrite_cap(nl, op, delta)
    if delta is None:
        delta = 0.5 * min(cap, 0.5) if big_c > 0.0 else 0.5
        delta = min(delta, c_cap)
    return DecayParams(r=r, c=c, C=big_c, k=k, delta=float(delta))


def decay_bound(dp: DecayParams, By0_norm_sq: float, t):
    """Comparison bound for ||By||^2 along an unforced trajectory.

    With ``w0 = By0_norm_sq + k*C`` the bound is the Bernoulli solution
    ``w(t) - k*C`` where ``w' = w - delta*w^r, w(0) = w0``, evaluated in the
    overflow-safe form ``w0 * (e^{-(r-1)t} + delta*w0^{r-1}*(1 - e^{-(r-1)t}))
    ^(-1/(r-1))``.  Vectorized over ``t``.
    """
    if not (isinstance(By0_norm_sq, (int, float)) and math.isfinite(By0_norm_sq) and By0_norm_sq >= 0):
        raise ValueError("By0_norm_sq must be finite and nonnegative")
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0):
        raise ValueError("t must be nonnegative")
    r1 = dp.r - 1.0
    kc = dp.k * dp.C
    w0 = By0_norm_sq + kc
    if w0 == 0.0:
        out = np.zeros_like(ts)
        return out if isinstance(t, np.ndarray) else float(out)
    damp = np.exp(-r1 * ts)
    bracket = damp + dp.delta * w0 ** r1 * (1.0 - damp)
    out = w0 * bracket ** (-1.0 / r1) - kc
    return out if isinstance(t, np.ndarray) else float(out)


def absorbing_radius(dp: DecayParams) -> float:
    """t -> infinity limit of the decay bound: delta^(-1/(r-1)) - k*C."""
    return float(dp.delta ** (-1.0 / (dp.r - 1.0)) - dp.k * dp.C)


@dataclass(frozen=True)
class MonitorTolerances:
    """Slack granted to each monitor check.

    The identity tolerance is ``identity_scale*(1 + E(0))`` absolute (it
    absorbs integrator and trapezoid error); envelope and decay are relative
    to the bound value; conservation is relative to E(0).
    """

    identity_scale: float = 1e-6
    envelope_rel: float = 1e-9
    conservation_rel: float = 1e-6
    decay_rel: float = 1e-9


@dataclass(frozen=True)
class MonitorCheck:
    """One per-sample check: worst signed violation and where it occurred.

    ``worst_violation`` is ``lhs - bound`` at the worst sample (negative
    means the bound held with margin); ``tolerance`` is the slack granted
    there.
    """

    name: str
    passed: bool
    worst_violation: float
    t_worst: float
    tolerance: float
    samples: int


@dataclass(frozen=True)
class MonitorReport:
    """Verdicts of all enabled checks for one trajectory."""

    checks: tuple[MonitorCheck, ...]
    diverged: bool = False
    diverged_at: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and not self.diverged

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "diverged": self.diverged,
            "diverged_at": self.diverged_at,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst_violation": c.worst_violation,
                    "t_worst": c.t_worst,
                    "tolerance": c.tolerance,
                    "samples": c.samples,
                }
                for c in self.checks
            ],
        }


def identity_residuals(tbl: EnergyTable) -> np.ndarray:
    """Per-sample energy-identity residual.

    Row ``i > 0`` holds ``|E_i - E_{i-1} - trapezoid of <g, y_t> over
    [t_{i-1}, t_i]|``; row 0 is 0 by convention.
    """
    res = np.zeros(len(tbl))
    if len(tbl) > 1:
        dt = np.diff(tbl.t)
        work = 0.5 * dt * (tbl.forcing_power[1:] + tbl.forcing_power[:-1])
        res[1:] = np.abs(np.diff(tbl.energy) - work)
    return res


def _per_sample_check(name: str, t, viol, allowed) -> MonitorCheck:
    i, worst, tolerance, passed = worst_margin(viol, allowed)
    return MonitorCheck(
        name=name,
        passed=passed,
        worst_violation=worst,
        t_worst=float(t[i]),
        tolerance=tolerance,
        samples=len(viol),
    )


def monitor(
    traj: "Trajectory",
    gp: GronwallParams | None,
    dp: DecayParams | None = None,
    tolerances: MonitorTolerances | None = None,
    checks: tuple[str, ...] = ALL_CHECKS,
) -> MonitorReport:
    """Check a sampled trajectory against the identity and the bounds.

    Runs, as enabled by ``checks`` and the available parameters:

    - ``energy_identity``: trapezoid residual of the energy identity,
    - ``gronwall``: energy below :func:`gronwall_envelope` (needs ``gp``),
    - ``conservation``: |E - E(0)| small (zero forcing only),
    - ``decay``: ||By||^2 below :func:`decay_bound` (zero forcing, needs ``dp``).

    Single-sample trajectories pass vacuously where no interval exists.
    """
    tol = tolerances or MonitorTolerances()
    tbl = traj.energy
    t = tbl.t
    e0 = float(tbl.energy[0])
    results: list[MonitorCheck] = []
    conservative = traj.fs.kind == ZERO

    if "energy_identity" in checks:
        res = identity_residuals(tbl)
        allowed = tol.identity_scale * (1.0 + abs(e0))
        results.append(_per_sample_check("energy_identity", t, res, allowed))
    if "gronwall" in checks and gp is not None:
        env = gronwall_envelope(gp, t)
        viol = tbl.energy - env
        results.append(_per_sample_check("gronwall", t, viol, tol.envelope_rel * np.abs(env)))
    if "conservation" in checks and conservative:
        viol = np.abs(tbl.energy - e0)
        results.append(_per_sample_check("conservation", t, viol, tol.conservation_rel * abs(e0)))
    if "decay" in checks and conservative and dp is not None:
        bound = decay_bound(dp, float(tbl.by_norm_sq[0]), t)
        viol = tbl.by_norm_sq - bound
        results.append(_per_sample_check("decay", t, viol, tol.decay_rel * np.abs(bound)))

    return MonitorReport(checks=tuple(results), diverged=traj.diverged, diverged_at=traj.diverged_at)


def sample_table(
    traj: "Trajectory",
    gp: GronwallParams | None = None,
    dp: DecayParams | None = None,
) -> dict[str, np.ndarray | None]:
    """Per-sample bound columns aligned with the trajectory, for CSV output."""
    tbl = traj.energy
    out: dict[str, np.ndarray | None] = {
        "gronwall_envelope": None,
        "decay_bound": None,
        "identity_residual": identity_residuals(tbl),
    }
    if gp is not None:
        out["gronwall_envelope"] = np.asarray(gronwall_envelope(gp, tbl.t))
    if dp is not None and traj.fs.kind == ZERO:
        out["decay_bound"] = np.asarray(decay_bound(dp, float(tbl.by_norm_sq[0]), tbl.t))
    return out
