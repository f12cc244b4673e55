"""Energy bookkeeping and a-priori bounds as runtime monitors.

The solved system has an exact semi-discrete energy identity: with
``y = A^{-1} x``, the quantity ``E = (1/2)||B y_t||^2 + Phi(x)`` changes at
rate ``<g, y_t>``.  From the structural constants this module derives two
closed-form dominating curves — an exponential Gronwall envelope valid for
any admissible forcing, and for the unforced ``p > 2`` case a Bernoulli-type
decay bound on ``||By||^2`` with a finite absorbing radius — and checks a
sampled trajectory against them.  The problem alone decides which checks
apply, and each check has one fixed tolerance: a run is unforced exactly
when ``g1 = g2 = constant = 0`` (:attr:`ForcingSpec.unforced`), whatever
``g0`` states, and the decay bound needs ``p > 2``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nonlinearity import ForcingSpec, NonlinearitySpec, forcing_modal_batch, potential_batch, worst_margin
from .spectral import OperatorSpec, modes_to_grid

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trajectory

__all__ = [
    "DecayParams",
    "EnergyTable",
    "GronwallParams",
    "MonitorCheck",
    "MonitorReport",
    "absorbing_radius",
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

# Slack granted to each monitor check.  The identity tolerance is
# ``IDENTITY_SCALE*(1 + |E(0)|)`` absolute (it absorbs integrator and
# trapezoid error); envelope and decay are relative to the bound value;
# conservation is relative to |E(0)|.
IDENTITY_SCALE = 1e-6
ENVELOPE_REL = 1e-9
CONSERVATION_REL = 1e-6
DECAY_REL = 1e-9

# Rows of a sample history that energy_table reads at a time, and that
# cli._csv_text formats at a time: 0.2 MB of grid values at m = 32.  A block
# must start where a BLAS tile of the one-shot product over the whole
# history starts, or its last tile rounds in another order: with 256 rows,
# OpenBLAS 0.3.31's AVX-512 kernel moved the last grid value of a block's
# last 4 or 8 rows at m = 100 and 128, as 12-row tiles would.  3 * 2^7
# rows start tiles of 2^k and 3 * 2^k rows alike.
BLOCK_ROWS = 384

TABLE_RANGE_NOTE = "checked at the recorded samples only, not at the steps between them"


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """The energy split of every sample, one column per quantity.

    ``kinetic`` is (1/2)*sum(adot_k^2/lambda_k), ``potential`` is Phi(x),
    ``by_norm_sq`` is sum(a_k^2/lambda_k), and ``forcing_power`` is the
    pairing <g, y_t> = sum(g_k*adot_k/lambda_k).  Entries are finite except
    on the terminal sample of a diverged trajectory.  For a tabulated ``F``
    it also holds each sample's least and largest grid value, ``u_min`` and
    ``u_max``, which the table's range check reads.
    """

    t: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    energy: np.ndarray
    by_norm_sq: np.ndarray
    forcing_power: np.ndarray
    u_min: np.ndarray | None = None
    u_max: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.t.shape[0])


def _row_blocks(n: int):
    """Slices of ``range(n)`` in order, :data:`BLOCK_ROWS` rows each and the rest in the last.

    A short remainder joins the last full block, because numpy and OpenBLAS
    take a matrix-vector or small-matrix path, which rounds differently,
    for a product of a few rows.  With BLAS on one thread, each block then
    gives every row the bits of one product over the whole history;
    threaded BLAS splits a large product, and its rounding, by thread.
    """
    starts = range(0, max(n - BLOCK_ROWS, 0) + 1, BLOCK_ROWS)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def energy_table(
    op: OperatorSpec,
    nl: NonlinearitySpec,
    fs: ForcingSpec,
    t: np.ndarray,
    a_hist: np.ndarray,
    adot_hist: np.ndarray,
) -> EnergyTable:
    """Vectorized energy records for sampled modal histories.

    The columns are filled one block of rows at a time (:func:`_row_blocks`),
    so that a run's peak memory is its history plus these columns and one
    block's grid values and products, never another array of samples times
    modes or grid points.  With BLAS on one thread, every column has the
    bits of the one-shot formulas over the whole history.
    """
    lam = op.eigenvalues
    n = a_hist.shape[0]
    kinetic, potential, by_norm_sq, forcing_power = np.empty((4, n))
    table = nl.table
    u_min, u_max = np.empty((2, n)) if table is not None else (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(n):
            a, adot = a_hist[rows], adot_hist[rows]
            kinetic[rows] = 0.5 * np.sum(adot * adot / lam, axis=1)
            by_norm_sq[rows] = np.sum(a * a / lam, axis=1)
            if table is not None:
                # The grid values the table's potential reads are the ones
                # its range check needs.
                u = modes_to_grid(a, op)
                potential[rows] = table.Phi(u) @ op.weights
                u_min[rows], u_max[rows] = u.min(axis=1), u.max(axis=1)
            else:
                potential[rows] = potential_batch(a, op, nl)
            g = forcing_modal_batch(fs, op, a, adot)
            forcing_power[rows] = np.sum(g * adot / lam, axis=1)
        energy = kinetic + potential
    return EnergyTable(
        t=np.asarray(t, dtype=np.float64),
        kinetic=kinetic,
        potential=potential,
        energy=energy,
        by_norm_sq=by_norm_sq,
        forcing_power=forcing_power,
        u_min=u_min,
        u_max=u_max,
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
    e0: float,
) -> GronwallParams:
    """Envelope constants from the structural constants and the initial energy ``e0``.

    Young's inequality on the forcing power gives ``C0 = max(2*c_tilde*g1^2,
    4*g2^2 + 2)`` and ``C1 = 2*g1^2*c_tilde + 2*g0^2`` with ``c_tilde =
    c_emb^2 * max(p/b0, 1)``; an unforced run short-circuits to ``C0 = C1 =
    0`` (exact conservation).  Forcing constants that take ``C0`` or ``C1``
    past the float range raise ``ValueError`` naming them.
    """
    if nl.b0 <= 0:
        raise ValueError("coercivity constant b0 must be positive")
    c_emb = embedding_constant(op, nl.p)
    c_tilde = c_emb * c_emb * max(nl.p / nl.b0, 1.0)
    e_init = 2.0 * e0
    if fs.unforced:
        return GronwallParams(C0=0.0, C1=0.0, c_tilde=c_tilde, E_init=e_init)
    try:
        c0 = max(2.0 * c_tilde * fs.g1 ** 2, 4.0 * fs.g2 ** 2 + 2.0)
        c1 = 2.0 * fs.g1 ** 2 * c_tilde + 2.0 * fs.g0 ** 2
    except OverflowError:  # a float power past the range raises, a product is inf
        c0 = c1 = math.inf
    if not (math.isfinite(c0) and math.isfinite(c1)):
        raise ValueError(
            f"the forcing constants g0 = {fs.g0:g}, g1 = {fs.g1:g}, g2 = {fs.g2:g} "
            "take the Gronwall constants C0, C1 past the float range"
        )
    return GronwallParams(C0=c0, C1=c1, c_tilde=c_tilde, E_init=e_init)


def gronwall_envelope(gp: GronwallParams, t):
    """Closed-form solution of z' = C0*z + C1 from z(0) = E_init.

    ``e^(C0 t) * E_init + (C1/C0)(e^(C0 t) - 1)``, with the C0 -> 0 limit
    ``E_init + C1*t``.  Vectorized over ``t``.  Past ``C0 t`` ~ 709 it is
    ``inf``, silently; a zero coefficient's term is left out, never ``0*inf``.
    """
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0):
        raise ValueError("t must be nonnegative")
    if gp.C0 == 0.0:
        out = gp.E_init + gp.C1 * ts
    else:
        with np.errstate(over="ignore"):
            growth = np.exp(gp.C0 * ts)
        out = growth * gp.E_init if gp.E_init else np.zeros_like(growth)
        if gp.C1:
            out = out + (gp.C1 / gp.C0) * (growth - 1.0)
    return out if isinstance(t, np.ndarray) else float(out)


@dataclass(frozen=True)
class DecayParams:
    """Constants of the Bernoulli-type inequality behind the decay bound.

    ``r = p/2 > 1``; ``c = 2/c0`` with ``c0`` the coercivity-to-potential
    constant; ``C`` is the conserved ``||B y_t(0)||^2 + 2*Phi(x(0))``;
    ``delta`` must satisfy ``delta <= (k-1)/(k^r * C^r)`` when ``C > 0``,
    and the absorbing radius must be nonnegative, since ``||By||^2`` is.
    :func:`derive_decay` picks ``k = 2`` and a ``delta`` that is also small
    against ``c``, so that the comparison rewrite applies.
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
        radius = absorbing_radius(self)
        if radius < 0.0:
            raise ValueError(f"absorbing radius delta^(-1/(r-1)) - k*C = {radius:g} is negative")


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


def derive_decay(nl: NonlinearitySpec, fs: ForcingSpec, op: OperatorSpec, e0: float) -> DecayParams | None:
    """Decay constants for the unforced coercive case from the initial energy ``e0``, with ``k = 2``.

    ``c = 2/(p c_emb^p)``, and ``delta`` is half of ``min((k-1)/(k^r C^r),
    1/2)`` (all of it when ``C = 0``), capped by ``c/2^(r-1)`` so the
    comparison rewrite is valid.  Returns ``None`` whenever no decay bound
    exists: for nonzero forcing, for ``p <= 2``, when ``k^r C^r``
    overflows, since no ``delta > 0`` then satisfies the first cap, and
    when ``c_emb^p`` or ``2^(r-1)`` leaves the float range, since ``c`` or
    the second cap is then not a positive float.  This is the one place
    that decides whether the decay bound applies.
    """
    if not fs.unforced or nl.p <= 2.0:
        return None
    r = nl.p / 2.0
    big_c = 2.0 * e0
    cap = _delta_cap(2.0, r, big_c) if big_c > 0.0 else math.inf
    if cap == 0.0:
        return None
    try:
        c = 2.0 / (nl.p * embedding_constant(op, nl.p) ** nl.p)
        comparison_cap = c / 2.0 ** (r - 1.0)
    except (OverflowError, ZeroDivisionError):
        # c_emb^p or 2^(r-1) leaves the float range (p in the thousands).
        return None
    if not (math.isfinite(c) and comparison_cap > 0.0):
        return None
    delta = 0.5 * min(cap, 0.5) if big_c > 0.0 else 0.5
    delta = min(delta, comparison_cap)
    return DecayParams(r=r, c=c, C=big_c, k=2.0, delta=delta)


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
    """t -> infinity limit of the decay bound: delta^(-1/(r-1)) - k*C.

    ``inf`` when the power overflows a float, as it can for ``r`` near 1.
    """
    try:
        return float(dp.delta ** (-1.0 / (dp.r - 1.0)) - dp.k * dp.C)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class MonitorCheck:
    """One per-sample check: its violation and tolerance at the worst sample.

    The worst sample is the one with the largest ``violation - tolerance``
    (see :func:`worst_margin`), which need not be the one with the largest
    violation.  For ``gronwall`` and ``decay`` the violation is ``lhs -
    bound``, negative where the bound held with margin; for
    ``energy_identity`` and ``conservation`` it is the residual itself,
    never negative; for ``table_range`` it is how far the sample's grid
    values reach past the table's range, negative inside it.  ``tolerance``
    is the slack granted at that sample, and ``note`` says what a check
    cannot see, when that needs saying.
    """

    name: str
    passed: bool
    worst_violation: float
    t_worst: float
    tolerance: float
    samples: int
    note: str | None = None


@dataclass(frozen=True)
class MonitorReport:
    """Verdicts of every check that applies to one trajectory."""

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
            # a check's fields in order; ``note`` only when it says something
            "checks": [{k: v for k, v in asdict(c).items() if k != "note" or v is not None} for c in self.checks],
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


def _per_sample_check(name: str, t, viol, allowed, note: str | None = None) -> MonitorCheck:
    i, worst, tolerance, passed = worst_margin(viol, allowed)
    return MonitorCheck(
        name=name,
        passed=passed,
        worst_violation=worst,
        t_worst=float(t[i]),
        tolerance=tolerance,
        samples=len(viol),
        note=note,
    )


def sample_table(traj: "Trajectory", gp: GronwallParams, dp: DecayParams | None) -> dict[str, np.ndarray | None]:
    """The per-sample bound columns, aligned with the trajectory's samples.

    This is the one evaluation of the bounds: the CSV writes these columns
    and :func:`monitor` judges them.  ``decay_bound`` is ``None`` exactly
    when ``dp`` is, that is, when :func:`derive_decay` found no decay bound.
    """
    tbl = traj.energy
    return {
        "gronwall_envelope": gronwall_envelope(gp, tbl.t),
        "decay_bound": None if dp is None else decay_bound(dp, float(tbl.by_norm_sq[0]), tbl.t),
        "identity_residual": identity_residuals(tbl),
    }


def monitor(traj: "Trajectory", bounds: dict[str, np.ndarray | None]) -> MonitorReport:
    """Judge a sampled trajectory by the identity and the bound columns of :func:`sample_table`.

    The problem alone picks the checks, each with its fixed tolerance:

    - ``energy_identity``: the ``identity_residual`` column, always,
    - ``gronwall``: ``2E`` below the ``gronwall_envelope`` column, which
      starts at ``E_init = 2E(0)`` (forced runs),
    - ``conservation``: |E - E(0)| small (unforced runs),
    - ``decay``: ||By||^2 below the ``decay_bound`` column (unforced runs
      that have one),
    - ``table_range``: every grid value of every sample within the range on
      which a tabulated ``F``'s conditions were decided (custom ``F``).  It
      sees the recorded samples only, not the steps between them.

    Single-sample trajectories pass vacuously where no interval exists.
    """
    tbl = traj.energy
    t = tbl.t
    e0 = float(tbl.energy[0])
    results = [_per_sample_check("energy_identity", t, bounds["identity_residual"], IDENTITY_SCALE * (1.0 + abs(e0)))]
    if not traj.fs.unforced:
        env = bounds["gronwall_envelope"]
        viol = 2.0 * tbl.energy - env
        results.append(_per_sample_check("gronwall", t, viol, ENVELOPE_REL * np.abs(env)))
    else:
        viol = np.abs(tbl.energy - e0)
        results.append(_per_sample_check("conservation", t, viol, CONSERVATION_REL * abs(e0)))
        bound = bounds["decay_bound"]
        if bound is not None:
            viol = tbl.by_norm_sq - bound
            results.append(_per_sample_check("decay", t, viol, DECAY_REL * np.abs(bound)))
    if tbl.u_min is not None:
        lo, hi = traj.nl.table.range
        reach = np.maximum(lo - tbl.u_min, tbl.u_max - hi)
        results.append(_per_sample_check("table_range", t, reach, 0.0, note=TABLE_RANGE_NOTE))

    return MonitorReport(checks=tuple(results), diverged=traj.diverged, diverged_at=traj.diverged_at)
