"""Scalar nonlinearity, its potential, forcing terms, and runtime verifiers.

The wave model couples a pointwise nonlinearity ``F`` (primitive of a scalar
``f``) to the diagonal operator, plus a forcing ``g(x, v)`` where ``v``
carries the half-smoothed velocity.  ``F`` is a built-in kind or the
primitive of a tabulated ``f``; ``g`` is zero or affine.  Structural
assumptions (monotonicity, p-growth, coercivity, Lipschitz forcing) enter
the energy estimates as numeric constants; this module stores those
constants and decides them, one verifier per condition set, with no random
draws.  Each condition is decided on the kind's range: a built-in ``F`` in
closed form on the whole line, a tabulated one pointwise on its knot range,
the operator's Poincare condition ``lambda_min >= 1``
(:func:`verify_conditions`), and zero or affine ``g`` exactly
(:func:`verify_g`).  Every verdict is a :class:`ConditionCheck`: a name, a
pass flag, and for a failed check a witness saying where it fails.
"""

from __future__ import annotations

import math
import sys
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

# Growth, coercivity and the forcing's norm bound are compared with a
# relative slack of 1e-10*(1 + |rhs|): their two sides reach far beyond 1
# and a bare 1e-10 would be finer than double round-off there.
RELATIVE_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """Pointwise nonlinearity with its growth/coercivity constants.

    The constants assert ``||F(u)||_{p'} <= a0*||u||_p^(p-1) + a1*||u||_H``
    and ``<F(u),u> >= b0*||u||_p^p + b1*||u||_H^2``.  The custom kind, and
    only it, holds a :class:`TabulatedF` ``table``: its ``f``, the primitive
    ``F`` from 0 and the potential density ``Phi`` from 0.  Its constants
    are the user's claim, which :func:`verify_conditions` decides on the
    table's :attr:`~TabulatedF.range`.
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
    they continue linearly and quadratically.  :attr:`range` is the knot
    range ``[min(r[0], 0), max(r[-1], 0)]``, on which the table's conditions
    are decided.
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
        self._knots, self._f_knots, self._F_knots = x, y, Fk
        self._at, self._f_at, self._F_at, self._Phi_at = x[anchor], y[anchor], Fk[anchor], Pk[anchor]
        self._half_f_at = 0.5 * self._f_at
        self._half_slope = 0.5 * slope
        self._sixth_slope = slope / 6.0

    @property
    def range(self) -> tuple[float, float]:
        return float(self._knots[0]), float(self._knots[-1])

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
    and grid quadrature of the table's ``Phi`` for the custom kind.  The
    built-in kinds take ``|u|^p`` in place on the grid values, with no
    further array of their size.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if nl.kind == LINEAR:
        return 0.5 * np.sum(c * c, axis=1)
    u = modes_to_grid(c, op)
    if nl.kind in (POWER_LAW, CUBIC):
        # ``**=`` takes the same scalar-exponent path as ``**``, bit for bit.
        np.abs(u, out=u)
        u **= nl.p
        return (u @ op.weights) / nl.p
    return nl.table.Phi(u) @ op.weights


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one structural check, decided exactly on its range.

    A failed check carries a ``witness`` saying where it fails: the ``u``
    and both sides of the inequality there, the offending knot, the
    operator's ``lambda_min``, or the forcing's norm at the origin.
    """

    name: str
    passed: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Bundle of condition checks with an overall verdict.

    ``range`` is the interval ``F``'s checks were decided on when it is not
    the whole line: a table's knot range.
    """

    checks: tuple[ConditionCheck, ...]
    range: tuple[float, float] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        out = {"passed": self.passed}
        if self.range is not None:
            out["range"] = list(self.range)
        out["checks"] = [c.to_dict() for c in self.checks]
        return out


def _sides(nl: NonlinearitySpec, c: float, u, Fu):
    """Both sides of pointwise growth and of coercivity at ``u``, given ``F(u)``."""
    au = np.abs(u)
    power = au ** (nl.p - 1.0)
    growth = (np.abs(Fu), nl.a0 * power + nl.a1 * c * au)
    coercivity = (Fu * u, nl.b0 * power * au + nl.b1 * au * au)
    return growth, coercivity


def _witness(u, lhs, rhs) -> dict:
    return {"u": float(u), "lhs": float(lhs), "rhs": float(rhs)}


def _builtin_checks(nl: NonlinearitySpec, c: float) -> tuple[ConditionCheck, ...]:
    """The three checks of a built-in ``F``, decided in closed form on the whole line.

    ``F(u) = |u|^(p-2) u`` is nondecreasing.  At ``p = 2`` (the linear kind)
    both sides of growth and coercivity are multiples of ``|u|`` and ``u^2``,
    so they hold when ``a0 + a1 >= 1`` and ``b0 + b1 <= 1``.  For ``p > 2``
    the ``|u|^(p-1)`` and ``|u|^p`` terms rule at large ``|u|`` and the
    ``|u|`` and ``u^2`` ones near 0, so they hold when ``a0 >= 1``, and when
    ``b0 <= 1`` and ``b1 = 0``.  A failed check's witness is a ``u`` where
    the failing term is twice the other, or ``u = 1`` when that fails too.
    """
    p, a0, a1, b0, b1 = nl.p, nl.a0, nl.a1, nl.b0, nl.b1
    if nl.kind == LINEAR:
        growth_ok, coercive = a0 + a1 >= 1.0, b0 + b1 <= 1.0
        u_growth = u_coercive = 1.0
    else:
        growth_ok, coercive = a0 >= 1.0, b0 <= 1.0 and b1 == 0.0
        # There (1 - a0) |u|^(p-2) = 2 a1 c, or b1 = 2 (1 - b0) |u|^(p-2).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u_growth = max(1.0, float((np.float64(2.0 * a1 * c) / (1.0 - a0)) ** (1.0 / (p - 2.0))))
            u_coercive = min(1.0, float((np.float64(0.5 * b1) / (1.0 - b0)) ** (1.0 / (p - 2.0))))
        if b0 > 1.0:
            u_coercive = 1.0
    checks = [ConditionCheck("monotonicity", True)]
    for name, ok, u, which in (("growth", growth_ok, u_growth, 0), ("coercivity", coercive, u_coercive, 1)):
        witness = None
        if not ok:
            with np.errstate(over="ignore", invalid="ignore"):
                lhs, rhs = _sides(nl, c, u, np.float64(u) ** (p - 1.0))[which]
            witness = _witness(u, lhs, rhs)
        checks.append(ConditionCheck(name, ok, witness))
    return tuple(checks)


def _decided(name: str, u: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, at_most: bool) -> ConditionCheck:
    """Decide ``lhs <= rhs`` (``at_most``) or ``lhs >= rhs`` from its values at every candidate ``u``.

    Both sides are capped at a quarter of the largest float, so that a side
    that overflows still dominates a finite other side, and their
    difference and the slack stay finite.
    """
    big = 0.25 * sys.float_info.max
    left, right = np.clip(lhs, -big, big), np.minimum(rhs, big)
    margin = (left - right if at_most else right - left) - RELATIVE_SLACK * (1.0 + right)
    i = int(np.argmax(margin))  # the first NaN, if any: it fails
    passed = bool(margin[i] <= 0.0)
    return ConditionCheck(name, passed, None if passed else _witness(u[i], lhs[i], rhs[i]))


# Bisection steps that bring an interior minimum to rounding; the loop
# stops earlier once every bracket is that narrow.
_BISECTION_STEPS = 200


def _table_checks(nl: NonlinearitySpec, c: float) -> tuple[ConditionCheck, ...]:
    """The three checks of a tabulated ``F``, decided pointwise on its knot range.

    ``F`` is nondecreasing exactly when ``f >= 0`` at every table entry: the
    inserted knot at 0 and the clamped tails add none.  Growth and
    coercivity are inequalities ``phi >= 0`` in ``v = |u|``, one per row of
    ``(kappa, alpha, beta)``, with ``phi = kappa sign(u) F(u) + alpha
    v^(p-1) + beta v``: coercivity divided by ``v``, as ``sign(u) F(u) - b0
    v^(p-1) - b1 v``, and growth against ``-F`` and ``+F``, as ``a0 v^(p-1)
    + a1 c v -+ sign(u) F(u)``.  The row against ``+F`` holds whenever ``F``
    is nondecreasing, since ``sign(u) F(u) = |F(u)|`` then.

    On a segment between knots ``F`` is quadratic, so ``phi''(v) = kappa
    sign(u) f' + alpha (p-1) (p-2) v^(p-3)`` is monotone in ``v``: it
    changes sign at most once, at a closed-form inflection point.  On the
    concave side ``phi`` is least at an end; the convex side holds at most
    one interior minimum, where ``phi'`` crosses 0, found by bisection.  So
    each inequality is checked at every knot and at those minima, with the
    relative slack ``1e-10*(1 + |rhs|)``.  ``phi`` lies above its tangents
    on the convex side, so a segment where they stay at or above 0 cannot
    dip below it and is not searched.  All of this runs in ``u``, where the
    convex side and the crossing are the same.
    """
    t = nl.table
    low = int(np.argmin(t.fv))
    monotone = bool(t.fv[low] >= 0.0)
    witness = None if monotone else {"knot": low, "u": float(t.r[low]), "f": float(t.fv[low])}
    mono = ConditionCheck("monotonicity", monotone, witness)

    p = nl.p
    x, fk, Fk = t._knots, t._f_knots, t._F_knots
    v = np.abs(x)
    # Segment j joins knots j and j + 1, with f' = s and sign(u) = sigma on it.
    h = np.diff(x)
    s = np.diff(fk) / h
    sigma = np.where(x[1:] > 0.0, 1.0, -1.0)
    rows = [(1.0, -nl.b0, -nl.b1), (-1.0, nl.a0, nl.a1 * c)]
    if not monotone:
        rows.append((1.0, nl.a0, nl.a1 * c))

    def minima(j, kappa, alpha, beta, convex_l, convex_r, d_l, d_r):
        """The interior minima of phi on segments ``j``, whose convex side may dip below 0."""
        xj, fj, Fj, sj, sg = x[j], fk[j], Fk[j], s[j], sigma[j]

        def slope(u, i):
            return sg[i] * (kappa * (fj[i] + sj[i] * (u - xj[i])) + alpha * (p - 1.0) * np.abs(u) ** (p - 2.0) + beta)

        def phi(u, i):
            w = u - xj[i]
            return kappa * sg[i] * (Fj[i] + w * (fj[i] + 0.5 * sj[i] * w)) + alpha * np.abs(u) ** (p - 1.0) + beta * np.abs(u)

        every = slice(None)
        curvature = alpha * (p - 1.0) * (p - 2.0)
        flip = np.clip(sg * (-kappa * sg * sj / curvature) ** (np.float64(1.0) / (p - 3.0)), xj, x[j + 1])
        d_flip = slope(flip, every)
        cl, cr = convex_l[j], convex_r[j]
        lo, d_lo = np.where(cl, xj, flip), np.where(cl, d_l[j], d_flip)
        hi, d_hi = np.where(cr, x[j + 1], flip), np.where(cr, d_r[j], d_flip)
        i = np.flatnonzero((d_lo < 0.0) & (d_hi > 0.0))
        if not i.size:
            return lo[i]
        lo, hi, d_lo, d_hi = lo[i], hi[i], d_lo[i], d_hi[i]
        p_lo = phi(lo, i)
        meet = (phi(hi, i) - p_lo + d_lo * lo - d_hi * hi) / (d_lo - d_hi)
        dips = ~(p_lo + d_lo * (meet - lo) >= 0.0)
        i, lo, hi = i[dips], lo[dips], hi[dips]
        for _ in range(_BISECTION_STEPS):
            if np.all(hi - lo <= np.finfo(np.float64).eps * np.maximum(np.abs(lo), np.abs(hi))):
                break
            mid = 0.5 * (lo + hi)
            left = slope(mid, i) < 0.0
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        return 0.5 * (lo + hi)

    found = [x]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, r = v ** (p - 2.0), v ** (p - 3.0)
        power, dpower = q * v, (p - 1.0) * q
        signed_F, signed_s = np.where(x < 0.0, -Fk, Fk), sigma * s
        for kappa, alpha, beta in rows:
            # phi at the knots, and phi' and the sign of phi'' at each end of
            # each segment, all as functions of u.
            phi_k = kappa * signed_F + alpha * power + beta * v
            slope_k = kappa * fk + alpha * dpower + beta
            d_l, d_r = sigma * slope_k[:-1], sigma * slope_k[1:]
            bend, curve = kappa * signed_s, (alpha * (p - 1.0) * (p - 2.0)) * r
            convex_l, convex_r = bend + curve[:-1] >= 0.0, bend + curve[1:] >= 0.0
            # Tangents at a convex end that stay >= 0 over the segment.
            safe_l = convex_l & (phi_k[:-1] + np.minimum(d_l, 0.0) * h >= 0.0)
            safe_r = convex_r & (phi_k[1:] - np.maximum(d_r, 0.0) * h >= 0.0)
            j = np.flatnonzero((convex_l & (d_l < 0.0) | convex_r & (d_r > 0.0)) & ~(safe_l | safe_r))
            if j.size:
                found.append(minima(j, kappa, alpha, beta, convex_l, convex_r, d_l, d_r))
        # Every minimum is a candidate for both checks: more points only test more.
        u = np.concatenate(found)
        (g_lhs, g_rhs), (c_lhs, c_rhs) = _sides(nl, c, u, np.concatenate((Fk, t.F(u[x.size :]))))
    growth = _decided("growth", u, g_lhs, g_rhs, at_most=True)
    coercivity = _decided("coercivity", u, c_lhs, c_rhs, at_most=False)
    return mono, growth, coercivity


def verify_conditions(nl: NonlinearitySpec, op: OperatorSpec) -> ConditionReport:
    """Monotonicity, growth and coercivity of ``F`` on the kind's range, and Poincare.

    Each is decided pointwise, which on a grid with positive weights
    implies the norm form the estimates use:

    - monotonicity: ``F`` nondecreasing, so ``<F(x) - F(z), x - z> >= 0``,
    - growth: ``|F(u)| <= a0 |u|^(p-1) + a1 c |u|`` with
      ``c = length^(1/2 - 1/p')``, which by Minkowski and Hoelder gives
      ``||F(x)||_{p'} <= a0*||x||_p^(p-1) + a1*||x||_H``,
    - coercivity: ``F(u) u >= b0 |u|^p + b1 u^2``, which gives
      ``<F(x), x> >= b0*||x||_p^p + b1*||x||_H^2``.

    A built-in kind, with any constants, is decided in closed form on the
    whole line (:func:`_builtin_checks`).  A table is decided on its knot
    range, which the report states (:func:`_table_checks`); growth and
    coercivity there carry the relative slack ``1e-10*(1 + |rhs|)``.  A run
    sees the table's ``F`` only where its grid values go, which ``run``
    checks at every sample.  No check draws.

    The last check, ``poincare``, is the operator's ``lambda_min >= 1``
    (Dirichlet needs ``length <= pi``, periodic ``length <= 2*pi``), on
    which the estimates' norm equivalences rest; a failed one's witness is
    ``lambda_min``.
    """
    c = op.domain.length ** ((2.0 - nl.p) / (2.0 * nl.p))
    lam = op.lambda_min
    poincare = ConditionCheck("poincare", lam >= 1.0, None if lam >= 1.0 else {"lambda_min": lam})
    if nl.kind != CUSTOM:
        return ConditionReport(checks=(*_builtin_checks(nl, c), poincare))
    return ConditionReport(checks=(*_table_checks(nl, c), poincare), range=nl.table.range)


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


def verify_g(fs: ForcingSpec, op: OperatorSpec) -> ConditionReport:
    """The forcing bounds of a zero or affine g, decided exactly.

    ``g = g1 x + g2 v + c`` with ``g1, g2 >= 0``: the pairing bound is the
    triangle inequality, and the norm bound holds exactly when
    ``g0 >= ||g(0, 0)||_H = |c| ||P 1||`` does, up to the relative slack
    ``1e-10*(1 + g0)``.  That norm is computed from one evaluation of g at
    the origin, and a failed ``norm_bound``'s witness states it with ``g0``.
    """
    zero = np.zeros((1, op.modes))
    origin_norm = float(np.linalg.norm(forcing_modal_batch(fs, op, zero, zero)[0]))
    bounded = origin_norm - fs.g0 <= RELATIVE_SLACK * (1.0 + fs.g0)
    witness = None if bounded else {"origin_norm": origin_norm, "g0": fs.g0}
    checks = (ConditionCheck("norm_bound", bounded, witness), ConditionCheck("lipschitz_pairing", True))
    return ConditionReport(checks=checks)
