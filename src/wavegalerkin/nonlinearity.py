"""Scalar nonlinearity, its potential, forcing terms, and runtime verifiers.

The wave model couples a pointwise nonlinearity ``F`` (primitive of a scalar
``f``) to the diagonal operator, plus a forcing ``g(x, v)`` where ``v``
carries the half-smoothed velocity.  Structural assumptions (monotonicity,
p-growth, coercivity, Lipschitz forcing) enter the energy estimates as
numeric constants; this module stores those constants and can falsify them
by randomized sampling.  The verifiers only falsify, never certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import OperatorSpec, grid_to_modes, modes_to_grid

__all__ = [
    "ConditionCheck",
    "ConditionReport",
    "ForcingSpec",
    "NonlinearitySpec",
    "TabulatedF",
    "affine_forcing",
    "constant_modal",
    "cubic_nonlinearity",
    "custom_lipschitz_forcing",
    "custom_nonlinearity",
    "F_on_grid",
    "forcing_modal_batch",
    "linear_nonlinearity",
    "potential_batch",
    "power_law_nonlinearity",
    "tabulated_f",
    "verify_conditions",
    "verify_g",
    "zero_forcing",
]

LINEAR = "linear"
POWER_LAW = "power_law"
CUBIC = "cubic"
CUSTOM = "custom"
NONLINEARITY_KINDS = (LINEAR, POWER_LAW, CUBIC, CUSTOM)

ZERO = "zero"
AFFINE = "affine"
CUSTOM_LIPSCHITZ = "custom_lipschitz"
FORCING_KINDS = (ZERO, AFFINE, CUSTOM_LIPSCHITZ)

# Random verifier draws: coefficients i.i.d. uniform in [-1, 1] times an
# amplitude uniform in [0, AMPLITUDE_MAX].
AMPLITUDE_MAX = 10.0

# Monotonicity slack is absolute; growth and coercivity use a relative
# slack because their two sides reach ~1e7 at the largest amplitudes and
# a bare 1e-10 would be finer than double round-off there.
MONOTONE_SLACK = 1e-10
RELATIVE_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """Pointwise nonlinearity with its growth/coercivity constants.

    ``f`` is the scalar integrand, ``F`` its primitive from 0 and ``Phi``
    the primitive of ``F`` from 0 (pointwise potential density).  The
    constants assert ``||F(u)||_{p'} <= a0*||u||_p^(p-1) + a1*||u||_H`` and
    ``<F(u),u> >= b0*||u||_p^p + b1*||u||_H^2``; custom kinds must supply
    constants themselves and can only be falsified by :func:`verify_conditions`.
    ``p == 2`` is reserved for the linear kind, which is oracle-only: the
    decay machinery requires ``p > 2``.
    """

    kind: str
    p: float
    a0: float = 1.0
    a1: float = 0.0
    b0: float = 1.0
    b1: float = 0.0
    f: Callable[[np.ndarray], np.ndarray] | None = None
    F: Callable[[np.ndarray], np.ndarray] | None = None
    Phi: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"kind must be one of {NONLINEARITY_KINDS}, got {self.kind!r}")
        for name in ("p", "a0", "a1", "b0", "b1"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(v))
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("a0 and b0 must be positive")
        if self.a1 < 0 or self.b1 < 0:
            raise ValueError("a1 and b1 must be nonnegative")
        if self.kind == LINEAR:
            if self.p != 2.0:
                raise ValueError("linear kind is the oracle-only p=2 case")
        elif self.p <= 2.0:
            raise ValueError("p must be > 2 (p=2 is allowed only for the linear kind)")
        if self.kind == CUSTOM and (self.f is None or self.F is None or self.Phi is None):
            raise ValueError("custom kind requires a pointwise f and its primitives F and Phi")


def linear_nonlinearity() -> NonlinearitySpec:
    """F = identity; supports the exact closed-form oracle, not decay."""
    return NonlinearitySpec(kind=LINEAR, p=2.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def power_law_nonlinearity(p: float) -> NonlinearitySpec:
    """F(u) = |u|^(p-2) u; coercivity and growth hold exactly with a0=b0=1."""
    return NonlinearitySpec(kind=POWER_LAW, p=p, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def cubic_nonlinearity() -> NonlinearitySpec:
    """f(u) = 3u^2, F(u) = u^3: the power law at p=4."""
    return NonlinearitySpec(kind=CUBIC, p=4.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def custom_nonlinearity(
    f: Callable[[np.ndarray], np.ndarray],
    p: float,
    a0: float,
    a1: float,
    b0: float,
    b1: float,
    F: Callable[[np.ndarray], np.ndarray],
    Phi: Callable[[np.ndarray], np.ndarray],
) -> NonlinearitySpec:
    """User-supplied vectorized ``f`` with its exact primitives.

    ``F`` is the primitive of ``f`` from 0 and ``Phi`` the primitive of
    ``F`` from 0; stepping, verification and the energy evaluate them
    directly.  A :func:`tabulated_f` table supplies both.
    """
    return NonlinearitySpec(kind=CUSTOM, p=p, a0=a0, a1=a1, b0=b0, b1=b1, f=f, F=F, Phi=Phi)


class TabulatedF:
    """Piecewise-linear f from a table, with its exact primitives from 0.

    Calling it gives f, clamped to the endpoint values outside the table
    range, so a runaway trajectory sees a bounded f rather than an
    extrapolated one.  :meth:`F` (piecewise quadratic) and :meth:`Phi`
    (piecewise cubic) integrate that clamped f exactly: beyond the table
    they continue linearly and quadratically.
    """

    def __init__(self, r_values, f_values) -> None:
        r = np.asarray(r_values, dtype=np.float64)
        fv = np.asarray(f_values, dtype=np.float64)
        if r.ndim != 1 or r.shape != fv.shape or r.size < 2:
            raise ValueError("table needs matching 1-D r and f arrays with >= 2 entries")
        if not np.all(np.diff(r) > 0):
            raise ValueError("table r values must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(fv))):
            raise ValueError("table values must be finite")
        self.r, self.fv = r, fv

        # Knots: the table with u = 0 inserted when it is not a node, so the
        # primitives are summed outward from 0 and small |u| keeps its digits.
        k = int(np.searchsorted(r, 0.0))
        x, y = r, fv
        if k == r.size or r[k] != 0.0:
            x = np.insert(r, k, 0.0)
            y = np.insert(fv, k, np.interp(0.0, r, fv))
        n = x.size
        h = np.diff(x)
        dF = 0.5 * h * (y[:-1] + y[1:])
        Fk = self._outward(dF, k)
        Pk = self._outward(0.5 * h * (Fk[:-1] + Fk[1:]) - h * h * np.diff(y) / 12.0, k)

        # searchsorted(x, u, "right") picks one of n + 1 pieces: each of the
        # two clamped tails and each segment.  A piece is expanded about its
        # knot nearer 0, with slope 0 in the tails.
        anchor = np.r_[0 : k + 1, k:n]
        slope = np.r_[0.0, np.diff(y) / h, 0.0]
        self._knots = x
        self._at, self._f_at, self._F_at, self._Phi_at = x[anchor], y[anchor], Fk[anchor], Pk[anchor]
        self._half_f_at = 0.5 * self._f_at
        self._half_slope = 0.5 * slope
        self._sixth_slope = slope / 6.0

    @staticmethod
    def _outward(increments: np.ndarray, k: int) -> np.ndarray:
        """Knot values of a primitive that is 0 at knot k, given its segment increments."""
        out = np.zeros(increments.size + 1)
        out[k + 1 :] = np.cumsum(increments[k:])
        out[:k] = -np.cumsum(increments[:k][::-1])[::-1]
        return out

    def _piece(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = np.asarray(u, dtype=np.float64)
        i = np.searchsorted(self._knots, u, side="right")
        return i, u - self._at[i]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.r, self.fv)

    def F(self, u: np.ndarray) -> np.ndarray:
        """Exact primitive ``int_0^u f``."""
        i, t = self._piece(u)
        return self._F_at[i] + t * (self._f_at[i] + t * self._half_slope[i])

    def Phi(self, u: np.ndarray) -> np.ndarray:
        """Exact potential density ``int_0^u F``."""
        i, t = self._piece(u)
        return self._Phi_at[i] + t * (self._F_at[i] + t * (self._half_f_at[i] + t * self._sixth_slope[i]))


def tabulated_f(r_values, f_values) -> TabulatedF:
    """Piecewise-linear f for a table of (r, f) pairs, with exact ``F`` and ``Phi``.

    Pass ``F=table.F, Phi=table.Phi`` to :func:`custom_nonlinearity`.
    """
    return TabulatedF(r_values, f_values)


def F_on_grid(nl: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """Evaluate the primitive F pointwise on an array of samples.

    Closed forms for the built-in kinds and ``nl.F`` for the custom kind.
    """
    if nl.kind == LINEAR:
        return np.asarray(u, dtype=np.float64).copy()
    if nl.kind == POWER_LAW:
        return np.abs(u) ** (nl.p - 2.0) * u
    if nl.kind == CUBIC:
        return u * u * u
    return np.asarray(nl.F(u), dtype=np.float64)


def potential_batch(coeffs: np.ndarray, op: OperatorSpec, nl: NonlinearitySpec) -> np.ndarray:
    """Potential values for a batch of coefficient rows, vectorized.

    Phi(x) = int_0^1 <F(s x), x> ds; closed forms for the built-in kinds,
    and grid quadrature of ``nl.Phi`` for the custom kind.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if nl.kind == LINEAR:
        return 0.5 * np.sum(c * c, axis=1)
    u = modes_to_grid(c, op)
    if nl.kind in (POWER_LAW, CUBIC):
        return (np.abs(u) ** nl.p @ op.weights) / nl.p
    return np.asarray(nl.Phi(u), dtype=np.float64) @ op.weights


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one sampled structural check.

    ``worst_violation`` is how far the worst sample crossed the asserted
    inequality (negative or zero means never crossed); ``tolerance`` is the
    slack granted before declaring failure; ``witness`` localizes the worst
    sample for reproduction.
    """

    name: str
    passed: bool
    samples: int
    worst_violation: float
    tolerance: float
    witness: dict | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Bundle of condition checks with an overall verdict."""

    checks: tuple[ConditionCheck, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "samples": c.samples,
                    "worst_violation": c.worst_violation,
                    "tolerance": c.tolerance,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }


def _draw_batch(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    coeffs = rng.uniform(-1.0, 1.0, size=(n, m))
    coeffs *= rng.uniform(0.0, AMPLITUDE_MAX, size=(n, 1))
    return coeffs


def worst_margin(viol, allowed) -> tuple[int, float, float, bool]:
    """Sample with the largest ``viol - allowed``, as (index, violation, tolerance, passed).

    A non-finite margin counts as an unbounded violation, reported as +inf.
    """
    viol = np.asarray(viol, dtype=np.float64)
    allowed = np.broadcast_to(np.asarray(allowed, dtype=np.float64), viol.shape)
    margin = viol - allowed
    margin = np.where(np.isfinite(margin), margin, np.inf)
    i = int(np.argmax(margin))
    worst = float(viol[i]) if math.isfinite(viol[i]) else math.inf
    return i, worst, float(allowed[i]), bool(margin[i] <= 0.0)


def _check(name: str, n: int, violation: np.ndarray, tol: np.ndarray, witness_extra=None) -> ConditionCheck:
    i, worst, tolerance, passed = worst_margin(violation, tol)
    witness = {"sample": i}
    if witness_extra is not None:
        witness.update({k: float(v[i]) for k, v in witness_extra.items()})
    return ConditionCheck(
        name=name,
        passed=passed,
        samples=n,
        worst_violation=worst,
        tolerance=tolerance,
        witness=witness if not passed else None,
    )


# Overflowing samples (large p at verifier amplitudes) give non-finite
# margins, which worst_margin reports as unbounded violations.
@np.errstate(over="ignore", invalid="ignore")
def verify_conditions(
    nl: NonlinearitySpec,
    op: OperatorSpec,
    samples: int,
    seed: int = 0,
) -> ConditionReport:
    """Randomized falsification of monotonicity, growth, and coercivity.

    Draws ``samples`` field pairs with coefficients uniform in [-1, 1]
    scaled by amplitudes uniform in [0, 10] and checks, by grid quadrature:

    - monotonicity: <F(x) - F(z), x - z> >= -1e-10,
    - growth: ||F(x)||_{p'} <= a0*||x||_p^(p-1) + a1*||x||_H,
    - coercivity: <F(x), x> >= b0*||x||_p^p + b1*||x||_H^2,

    the last two with relative slack 1e-10*(1 + |rhs|).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    m = op.modes
    cx = _draw_batch(rng, samples, m)
    cz = _draw_batch(rng, samples, m)
    w = op.weights
    ux = modes_to_grid(cx, op)
    uz = modes_to_grid(cz, op)
    fx = F_on_grid(nl, ux)
    fz = F_on_grid(nl, uz)

    mono = ((fx - fz) * (ux - uz)) @ w
    mono_tol = np.full(samples, MONOTONE_SLACK)
    c_mono = _check("monotonicity", samples, -mono, mono_tol, {"pairing": mono})

    p = nl.p
    q = p / (p - 1.0)
    norm_p = (np.abs(ux) ** p @ w) ** (1.0 / p)
    norm_h = np.sqrt(np.sum(cx * cx, axis=1))
    dual = (np.abs(fx) ** q @ w) ** (1.0 / q)
    rhs_g = nl.a0 * norm_p ** (p - 1.0) + nl.a1 * norm_h
    tol_g = RELATIVE_SLACK * (1.0 + np.abs(rhs_g))
    c_growth = _check("growth", samples, dual - rhs_g, tol_g, {"lhs": dual, "rhs": rhs_g})

    pairing = (fx * ux) @ w
    rhs_c = nl.b0 * norm_p ** p + nl.b1 * norm_h ** 2
    tol_c = RELATIVE_SLACK * (1.0 + np.abs(rhs_c))
    c_coerce = _check("coercivity", samples, rhs_c - pairing, tol_c, {"lhs": pairing, "rhs": rhs_c})

    return ConditionReport(checks=(c_mono, c_growth, c_coerce), seed=seed)


@dataclass(frozen=True, eq=False)
class ForcingSpec:
    """Forcing term g(x, v) with its Lipschitz/affine constants.

    ``v`` is the half-smoothed velocity channel.  The constants assert
    ``||g(x,v)||_H <= g1*||x||_H + g2*||v||_H + g0`` and, pairing against
    any test field z, ``|<g(x,v) - g(x1,v1), z>| <= g1*|<x-x1,z>| +
    g2*|<v-v1,z>|``; ``g0`` must dominate ``||g(0,0)||_H``.
    """

    kind: str
    g0: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    constant: float = 0.0
    func: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FORCING_KINDS:
            raise ValueError(f"kind must be one of {FORCING_KINDS}, got {self.kind!r}")
        for name in ("g0", "g1", "g2", "constant"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(v))
        if self.g0 < 0 or self.g1 < 0 or self.g2 < 0:
            raise ValueError("g0, g1, g2 must be nonnegative")
        if self.kind == ZERO and (self.g0 or self.g1 or self.g2 or self.constant):
            raise ValueError("zero forcing takes no constants")
        if self.kind == CUSTOM_LIPSCHITZ and self.func is None:
            raise ValueError("custom_lipschitz requires a callable")

    @property
    def velocity_dependent(self) -> bool:
        return self.kind != ZERO and self.g2 > 0.0


def zero_forcing() -> ForcingSpec:
    return ForcingSpec(kind=ZERO)


def affine_forcing(
    g1: float = 0.0,
    g2: float = 0.0,
    constant: float = 0.0,
    g0: float | None = None,
) -> ForcingSpec:
    """g(x, v) = g1*x + g2*v + constant, with |constant| folded into g0.

    When ``g0`` is omitted it defaults to 0 for a zero constant; a nonzero
    constant needs an explicit, domain-aware g0 (its norm depends on the
    interval length).
    """
    if g0 is None:
        if constant != 0.0:
            raise ValueError("g0 must be given explicitly when constant != 0")
        g0 = 0.0
    return ForcingSpec(kind=AFFINE, g0=g0, g1=g1, g2=g2, constant=constant)


def custom_lipschitz_forcing(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g0: float,
    g1: float,
    g2: float,
) -> ForcingSpec:
    """Grid-sample callable g(x_samples, v_samples) with declared constants."""
    return ForcingSpec(kind=CUSTOM_LIPSCHITZ, g0=g0, g1=g1, g2=g2, func=func)


def constant_modal(op: OperatorSpec, value: float = 1.0) -> np.ndarray:
    """Coefficients of the constant function projected onto the basis."""
    return grid_to_modes(np.full(op.grid_points, float(value)), op)


def forcing_modal_batch(
    fs: ForcingSpec,
    op: OperatorSpec,
    a: np.ndarray,
    adot: np.ndarray,
) -> np.ndarray:
    """Modal forcing coefficients for batches of states, vectorized.

    Rows of ``a`` and ``adot`` are displacement coefficients and their time
    derivatives; the velocity channel passed to g has coefficients
    ``adot / sqrt(lambda)``.  A custom g must return one sample per grid
    node; the samples may be non-finite (a diverged run's last row).
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    adot = np.atleast_2d(np.asarray(adot, dtype=np.float64))
    if fs.kind == ZERO:
        return np.zeros_like(a)
    v = adot / op.sqrt_eigenvalues[None, :]
    if fs.kind == AFFINE:
        out = fs.g1 * a + fs.g2 * v
        if fs.constant != 0.0:
            out = out + fs.constant * constant_modal(op)[None, :]
        return out
    ug = modes_to_grid(a, op)
    vg = modes_to_grid(v, op)
    rows = np.asarray([fs.func(ug[i], vg[i]) for i in range(a.shape[0])], dtype=np.float64)
    if rows.shape != ug.shape:
        raise ValueError("custom forcing must return one sample per grid node")
    return grid_to_modes(rows, op)


def verify_g(
    fs: ForcingSpec,
    op: OperatorSpec,
    samples: int,
    seed: int = 0,
) -> ConditionReport:
    """Randomized falsification of the forcing bounds.

    Checks ``g0 >= ||g(0,0)||_H``, the norm bound against random states,
    and the pairing Lipschitz bound against random quadruples and test
    fields, all with relative slack 1e-10.  Zero forcing draws nothing:
    g and its constants vanish, so every lhs, rhs and violation is exactly
    0 and every tolerance the bare slack, whatever the draws would be.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if fs.kind == ZERO:
        counts = (("g0_dominates_origin", 1), ("norm_bound", samples), ("lipschitz_pairing", samples))
        return ConditionReport(
            checks=tuple(ConditionCheck(name, True, n, 0.0, RELATIVE_SLACK) for name, n in counts),
            seed=seed,
        )
    rng = np.random.default_rng(seed)
    m = op.modes

    def g_modal(ca: np.ndarray, cv: np.ndarray) -> np.ndarray:
        return forcing_modal_batch(fs, op, ca, cv * op.sqrt_eigenvalues[None, :])

    # forcing_modal_batch expects the raw time-derivative coefficients and
    # divides by sqrt(lambda) itself, so pre-multiply to hand it the v we
    # actually drew.
    zero = np.zeros((1, m))
    origin_norm = float(np.linalg.norm(g_modal(zero, zero)[0]))
    viol0 = np.array([origin_norm - fs.g0])
    tol0 = RELATIVE_SLACK * (1.0 + np.abs(np.array([fs.g0])))
    c_origin = _check("g0_dominates_origin", 1, viol0, tol0, {"origin_norm": np.array([origin_norm])})

    cx = _draw_batch(rng, samples, m)
    cv = _draw_batch(rng, samples, m)
    gv = g_modal(cx, cv)
    lhs = np.linalg.norm(gv, axis=1)
    rhs = fs.g1 * np.linalg.norm(cx, axis=1) + fs.g2 * np.linalg.norm(cv, axis=1) + fs.g0
    tol = RELATIVE_SLACK * (1.0 + np.abs(rhs))
    c_norm = _check("norm_bound", samples, lhs - rhs, tol, {"lhs": lhs, "rhs": rhs})

    cx1 = _draw_batch(rng, samples, m)
    cv1 = _draw_batch(rng, samples, m)
    cz = _draw_batch(rng, samples, m)
    dg = gv - g_modal(cx1, cv1)
    lhs_pair = np.abs(np.sum(dg * cz, axis=1))
    rhs_pair = fs.g1 * np.abs(np.sum((cx - cx1) * cz, axis=1)) + fs.g2 * np.abs(np.sum((cv - cv1) * cz, axis=1))
    tol_pair = RELATIVE_SLACK * (1.0 + np.abs(rhs_pair) + np.abs(lhs_pair))
    c_pair = _check("lipschitz_pairing", samples, lhs_pair - rhs_pair, tol_pair, {"lhs": lhs_pair, "rhs": rhs_pair})

    return ConditionReport(checks=(c_origin, c_norm, c_pair), seed=seed)
