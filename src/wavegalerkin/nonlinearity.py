"""Scalar nonlinearity, its potential, forcing terms, and runtime verifiers.

The wave model couples a pointwise nonlinearity ``F`` (primitive of a scalar
``f``) to the diagonal operator, plus a forcing ``g(x, v)`` where ``v``
carries the half-smoothed velocity.  ``F`` is a built-in kind or the
primitive of a tabulated ``f``; ``g`` is zero or affine.  Structural
assumptions (monotonicity, p-growth, coercivity, Lipschitz forcing) enter
the energy estimates as numeric constants; this module stores those
constants and checks them, one verifier per condition set.  Where a
condition is an identity (a built-in ``F`` with its own constants, every
forcing bound but the origin check) it is decided; otherwise
:func:`verify_conditions` falsifies it by randomized sampling, which never
certifies.
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
    "custom_nonlinearity",
    "F_on_grid",
    "forcing_modal_batch",
    "linear_nonlinearity",
    "pointwise_F",
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
FORCING_KINDS = (ZERO, AFFINE)

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

    The constants assert ``||F(u)||_{p'} <= a0*||u||_p^(p-1) + a1*||u||_H``
    and ``<F(u),u> >= b0*||u||_p^p + b1*||u||_H^2``.  The custom kind, and
    only it, holds a :class:`TabulatedF` ``table``: its ``f``, the primitive
    ``F`` from 0 and the potential density ``Phi`` from 0.  Its constants
    are the user's claim, which :func:`verify_conditions` can only falsify.
    ``p == 2`` is reserved for the linear kind, which is oracle-only: the
    decay machinery requires ``p > 2``.  The cubic kind is ``p == 4``.
    """

    kind: str
    p: float
    a0: float = 1.0
    a1: float = 0.0
    b0: float = 1.0
    b1: float = 0.0
    table: TabulatedF | None = None

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
        if self.kind == CUBIC and self.p != 4.0:
            raise ValueError("cubic kind is the power law at p=4")
        if (self.kind == CUSTOM) != isinstance(self.table, TabulatedF):
            raise ValueError("the custom kind, and only it, takes a TabulatedF table")


def linear_nonlinearity() -> NonlinearitySpec:
    """F = identity; supports the exact closed-form oracle, not decay."""
    return NonlinearitySpec(kind=LINEAR, p=2.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def power_law_nonlinearity(p: float) -> NonlinearitySpec:
    """F(u) = |u|^(p-2) u; coercivity and growth hold exactly with a0=b0=1."""
    return NonlinearitySpec(kind=POWER_LAW, p=p, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def cubic_nonlinearity() -> NonlinearitySpec:
    """f(u) = 3u^2, F(u) = u^3: the power law at p=4."""
    return NonlinearitySpec(kind=CUBIC, p=4.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)


def custom_nonlinearity(table: TabulatedF, p: float, a0: float, a1: float, b0: float, b1: float) -> NonlinearitySpec:
    """A tabulated ``f`` (see :func:`tabulated_f`) with its claimed constants.

    Stepping, verification and the energy evaluate the table's exact
    primitives ``table.F`` and ``table.Phi``.
    """
    return NonlinearitySpec(kind=CUSTOM, p=p, a0=a0, a1=a1, b0=b0, b1=b1, table=table)


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
        i = self._knots.searchsorted(u, "right")
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

    Pass it to :func:`custom_nonlinearity`.
    """
    return TabulatedF(r_values, f_values)


def pointwise_F(nl: NonlinearitySpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The primitive F as ``F(u, out) -> out``, built once per spec.

    Every kind writes ``F(u)`` into ``out`` (an array of ``u``'s shape that
    does not alias it) and returns it.
    """
    mul = np.multiply
    if nl.kind == LINEAR:

        def F(u, out):
            out[...] = u
            return out

    elif nl.kind == CUBIC:

        def F(u, out):
            return mul(mul(u, u, out), u, out)

    elif nl.kind == POWER_LAW:
        # A 0-d exponent skips the per-call conversion of a Python float.
        pm2 = np.array(nl.p - 2.0)
        absolute, power = np.abs, np.power

        def F(u, out):
            return mul(power(absolute(u, out), pm2, out), u, out)

    else:
        table_F = nl.table.F

        def F(u, out):
            out[...] = table_F(u)
            return out

    return F


def F_on_grid(nl: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """Evaluate the primitive F pointwise on an array of samples (see :func:`pointwise_F`)."""
    u = np.asarray(u, dtype=np.float64)
    return pointwise_F(nl)(u, np.empty_like(u))


def potential_batch(coeffs: np.ndarray, op: OperatorSpec, nl: NonlinearitySpec) -> np.ndarray:
    """Potential values for a batch of coefficient rows, vectorized.

    Phi(x) = int_0^1 <F(s x), x> ds; closed forms for the built-in kinds,
    and grid quadrature of the table's ``Phi`` for the custom kind.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if nl.kind == LINEAR:
        return 0.5 * np.sum(c * c, axis=1)
    u = modes_to_grid(c, op)
    if nl.kind in (POWER_LAW, CUBIC):
        return (np.abs(u) ** nl.p @ op.weights) / nl.p
    return nl.table.Phi(u) @ op.weights


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one structural check, sampled or decided.

    ``worst_violation`` is how far the worst sample crossed the asserted
    inequality (negative or zero means never crossed); ``tolerance`` is the
    slack granted before declaring failure; ``witness`` localizes the worst
    sample for reproduction.  A ``decided`` check was settled exactly, with
    no samples, so it carries only its verdict.
    """

    name: str
    passed: bool
    samples: int = 0
    worst_violation: float = 0.0
    tolerance: float = 0.0
    witness: dict | None = None
    decided: bool = False

    def to_dict(self) -> dict:
        if self.decided:
            return {"name": self.name, "passed": self.passed, "decided": True}
        return {
            "name": self.name,
            "passed": self.passed,
            "samples": self.samples,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "witness": self.witness,
        }


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
            "checks": [c.to_dict() for c in self.checks],
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
    """Monotonicity, growth and coercivity: decided where exact, else falsified by draws.

    A built-in kind with its factory's constants ``a0 = b0 = 1``,
    ``a1 = b1 = 0`` meets all three as identities on any grid with positive
    weights: ``F`` is nondecreasing, ``|F(u)|^(p') = |u|^p`` gives
    ``||F(u)||_{p'} = ||u||_p^(p-1)``, and ``F(u) u = |u|^p`` gives
    ``<F(u), u> = ||u||_p^p``.  The report then says so, with no draws.

    Anything else, a table or other constants, is a claim.  It draws
    ``samples`` field pairs with coefficients uniform in [-1, 1] scaled by
    amplitudes uniform in [0, 10] and checks, by grid quadrature:

    - monotonicity: <F(x) - F(z), x - z> >= -1e-10,
    - growth: ||F(x)||_{p'} <= a0*||x||_p^(p-1) + a1*||x||_H,
    - coercivity: <F(x), x> >= b0*||x||_p^p + b1*||x||_H^2,

    the last two with relative slack 1e-10*(1 + |rhs|).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if nl.kind != CUSTOM and (nl.a0, nl.a1, nl.b0, nl.b1) == (1.0, 0.0, 1.0, 0.0):
        names = ("monotonicity", "growth", "coercivity")
        return ConditionReport(checks=tuple(ConditionCheck(n, True, decided=True) for n in names), seed=seed)
    rng = np.random.default_rng(seed)
    m = op.modes
    cx = _draw_batch(rng, samples, m)
    cz = _draw_batch(rng, samples, m)
    w = op.weights
    ux = modes_to_grid(cx, op)
    uz = modes_to_grid(cz, op)
    # Both F values go into one buffer: with a fresh output per call, every
    # later (samples, N) temporary here faulted in new pages, which at m=512
    # nearly doubled the page faults and slowed `verify` by about a fifth.
    F = pointwise_F(nl)
    fxz = np.empty((2,) + ux.shape)
    fx, fz = F(ux, fxz[0]), F(uz, fxz[1])

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
    """Zero or affine forcing ``g(x, v) = g1*x + g2*v + constant`` with its bound constants.

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
    derivatives; the velocity channel seen by g has coefficients
    ``adot / sqrt(lambda)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    adot = np.atleast_2d(np.asarray(adot, dtype=np.float64))
    if fs.kind == ZERO:
        return np.zeros_like(a)
    out = fs.g1 * a + fs.g2 * (adot / op.sqrt_eigenvalues[None, :])
    if fs.constant != 0.0:
        out = out + fs.constant * constant_modal(op)[None, :]
    return out


def verify_g(fs: ForcingSpec, op: OperatorSpec, seed: int = 0) -> ConditionReport:
    """The forcing bounds of a zero or affine g, decided exactly.

    ``g = g1 x + g2 v + c`` with ``g1, g2 >= 0``: the pairing bound is the
    triangle inequality, and the norm bound holds exactly when
    ``g0 >= ||g(0, 0)||_H = |c| ||P 1||`` does, which ``g0_dominates_origin``
    computes from one evaluation of g at the origin.
    """
    zero = np.zeros((1, op.modes))
    origin_norm = float(np.linalg.norm(forcing_modal_batch(fs, op, zero, zero)[0]))
    viol0 = np.array([origin_norm - fs.g0])
    tol0 = RELATIVE_SLACK * (1.0 + np.abs(np.array([fs.g0])))
    origin = _check("g0_dominates_origin", 1, viol0, tol0, {"origin_norm": np.array([origin_norm])})
    checks = (
        origin,
        ConditionCheck("norm_bound", origin.passed, decided=True),
        ConditionCheck("lipschitz_pairing", True, decided=True),
    )
    return ConditionReport(checks=checks, seed=seed)
