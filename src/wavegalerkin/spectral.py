"""Eigenbasis calculus on an interval.

Everything downstream works in the eigenbasis of the second-derivative
operator ``A`` on ``(0, length)``: Dirichlet sine modes, or mean-zero
Fourier modes for the periodic case.  ``A`` and its powers act diagonally
on coefficients; grid transforms use a quadrature rule that integrates
products of retained basis functions exactly, so projections of polynomial
nonlinearities are alias-free at the default grid size.  Below
``FFT_MIN_MODES`` modes the transforms are dense matrix products; at or
above it they all run on ``numpy.fft``, the stepping loop's included
(:func:`transform_pair`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DomainSpec",
    "FFT_MIN_MODES",
    "OperatorSpec",
    "PoincareViolationError",
    "SpectralField",
    "build_operator",
    "dealias_floor",
    "default_grid_points",
    "from_grid",
    "grid_to_modes",
    "modes_to_grid",
    "to_grid",
    "transform_pair",
]

DIRICHLET = "dirichlet"
PERIODIC_MEAN_ZERO = "periodic_mean_zero"
BOUNDARY_KINDS = (DIRICHLET, PERIODIC_MEAN_ZERO)

# Smallest mode count whose grid transforms run on numpy.fft; below it they
# are dense products.  Set from the crossover sweep in
# benchmarks/bench_transforms.py: at or above it the FFT pair was no slower
# than the dense one at every swept mode count, in both boundary conditions.
FFT_MIN_MODES = 384


class PoincareViolationError(ValueError):
    """Smallest eigenvalue is below 1, so norm equivalences would fail."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DomainSpec:
    """Interval geometry and boundary condition.

    ``grid_points`` of ``None`` asks :func:`build_operator` to pick the
    smallest grid that makes quartic products of basis functions integrate
    exactly.  ``allow_poincare_violation`` downgrades the smallest-eigenvalue
    check (which requires ``lambda_min >= 1``) from an error to a recorded
    warning.
    """

    length: float
    bc: str
    grid_points: int | None = None
    allow_poincare_violation: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length)):
            raise ValueError("length must be a finite number")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.bc not in BOUNDARY_KINDS:
            raise ValueError(f"bc must be one of {BOUNDARY_KINDS}, got {self.bc!r}")
        if self.grid_points is not None:
            if not isinstance(self.grid_points, int) or isinstance(self.grid_points, bool):
                raise ValueError("grid_points must be an int or None")
            if self.grid_points < 1:
                raise ValueError("grid_points must be >= 1")
        object.__setattr__(self, "length", float(self.length))


def dealias_floor(modes: int, bc: str = DIRICHLET) -> int:
    """Smallest admissible grid size for ``modes`` retained modes.

    ``ceil(3 * modes / 2)`` in both cases; the periodic rule additionally
    needs ``2 * wavenumber_max + 1`` points so that no retained mode pair
    aliases to the constant under the trapezoid rule.
    """
    floor = (3 * modes + 1) // 2
    if bc == PERIODIC_MEAN_ZERO:
        floor = max(floor, 2 * ((modes + 1) // 2) + 1)
    return floor


def default_grid_points(modes: int, bc: str = DIRICHLET) -> int:
    """Grid size making products of up to four retained modes exact."""
    if bc == DIRICHLET:
        # Midpoint rule on N points integrates cos(q*pi*xi/l) exactly for
        # q <= 2N - 1; quartic products reach q = 4*modes.
        return 2 * modes + 1
    # Trapezoid rule on N points integrates wavenumber q exactly unless
    # N divides q; quartic products reach q = 4*wavenumber_max.
    return 4 * ((modes + 1) // 2) + 1


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Discretized operator: eigenvalues, quadrature grid, transform matrices.

    ``basis`` has shape ``(grid_points, modes)`` with columns sampling the
    orthonormal eigenfunctions; ``projection`` is its quadrature-weighted
    transpose, so ``projection @ basis == identity`` up to round-off.  Both
    are built on first use, so operators at or above ``FFT_MIN_MODES``
    never store them.
    """

    domain: DomainSpec
    modes: int
    eigenvalues: np.ndarray
    sqrt_eigenvalues: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    warnings: tuple[str, ...] = field(default=())

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def grid_points(self) -> int:
        return int(self.nodes.shape[0])

    @cached_property
    def basis(self) -> np.ndarray:
        l = self.domain.length
        if self.domain.bc == DIRICHLET:
            k = np.arange(1, self.modes + 1, dtype=np.float64)
            return _readonly(math.sqrt(2.0 / l) * np.sin(np.outer(self.nodes, k * np.pi / l)))
        idx = np.arange(self.modes)
        phase = np.outer(self.nodes, 2.0 * np.pi * (idx // 2 + 1) / l)
        return _readonly(np.where(idx % 2 == 0, np.cos(phase), np.sin(phase)) * math.sqrt(2.0 / l))

    @cached_property
    def projection(self) -> np.ndarray:
        return _readonly(self.basis.T * self.weights[None, :])

    @cached_property
    def _fft(self) -> _DirichletFFT | _PeriodicFFT | None:
        """FFT transform constants for this operator, or None below ``FFT_MIN_MODES``."""
        return _fft_plan(self) if self.modes >= FFT_MIN_MODES else None


def _fft_plan(op: OperatorSpec) -> _DirichletFFT | _PeriodicFFT:
    plan = _DirichletFFT if op.domain.bc == DIRICHLET else _PeriodicFFT
    return plan(op.modes, op.grid_points, op.domain.length)


class _DirichletFFT:
    """Sine transforms on the midpoint grid through one length-n real FFT.

    Sampling is a DST-III and projection a DST-II.  Makhoul's reordering
    (IEEE TASSP 28(1), 1980) maps either onto a real FFT of the grid length
    n: even grid indices in order, then odd ones reversed, the latter with a
    minus sign.  With ``T_q = e^{i pi q / 2n}``, projection reads
    ``c_k = -Im(T_k^* W_k) * sqrt(2 l) / n`` from ``W = rfft(reordered u)``,
    and sampling inverts it from ``W_q = T_q (a_{n-q} - i a_q) * (n/2) sqrt(2/l)``.
    """

    def __init__(self, m: int, n: int, length: float) -> None:
        self.m, self.n = m, n
        half = n // 2 + 1
        h = (n + 1) // 2
        grid = np.arange(n)
        # Projection reads reordered[r] = sign[r] * u[perm[r]]; sampling
        # undoes it with the inverse permutation and the matching signs.
        self.perm = np.concatenate([grid[0::2], grid[1::2][::-1]])
        self.sign = np.where(grid < h, 1.0, -1.0)
        self.inv_perm = np.argsort(self.perm)
        self.inv_sign = np.where(grid % 2 == 0, 1.0, -1.0)
        k = np.arange(1, m + 1)
        self.tw_from = -(math.sqrt(2.0 * length) / n) * np.exp(-0.5j * np.pi * k / n)
        q = np.arange(half)
        tw = (0.5 * n * math.sqrt(2.0 / length)) * np.exp(0.5j * np.pi * q / n)
        # a_q fills bins 1..min(m, n//2); a_{n-q} reaches bins q <= n//2
        # only on grids coarser than the default, where m >= n/2.
        self.low = min(m, half - 1)
        self.tw_low = -1j * tw[1 : self.low + 1]
        self.tw_high = tw[n - m :] if n - m < half else None

    def to_grid(self, c: np.ndarray) -> np.ndarray:
        n, half = self.n, self.n // 2 + 1
        z = np.zeros(c.shape[:-1] + (half,), dtype=np.complex128)
        np.multiply(c[..., : self.low], self.tw_low, out=z[..., 1 : self.low + 1])
        if self.tw_high is not None:
            z[..., n - self.m :] += c[..., n - half : self.m][..., ::-1] * self.tw_high
        return np.take(np.fft.irfft(z, n), self.inv_perm, axis=-1) * self.inv_sign

    def from_grid(self, u: np.ndarray) -> np.ndarray:
        n = self.n
        w = np.fft.rfft(np.take(u, self.perm, axis=-1) * self.sign)
        if self.m > n // 2:
            # Bins above n//2 are conjugates of the ones below.
            w = np.concatenate([w, w[..., n - n // 2 - 1 : 0 : -1].conj()], axis=-1)
        return (w[..., 1 : self.m + 1] * self.tw_from).imag


class _PeriodicFFT:
    """Cosine/sine pairs on the trapezoid grid through one length-n real FFT.

    Mode pair ``(2j, 2j+1)`` is wavenumber ``j+1``: the real part of rfft bin
    ``j+1`` and minus its imaginary part, scaled by ``sqrt(2 l) / n``.  The
    dealiasing floor keeps every wavenumber below ``n/2``.
    """

    def __init__(self, m: int, n: int, length: float) -> None:
        self.m, self.n = m, n
        self.n_cos, self.n_sin = (m + 1) // 2, m // 2
        self.scale_to = 0.5 * n * math.sqrt(2.0 / length)
        self.scale_from = math.sqrt(2.0 * length) / n

    def to_grid(self, c: np.ndarray) -> np.ndarray:
        z = np.zeros(c.shape[:-1] + (self.n // 2 + 1,), dtype=np.complex128)
        np.multiply(c[..., 0::2], self.scale_to, out=z.real[..., 1 : self.n_cos + 1])
        np.multiply(c[..., 1::2], -self.scale_to, out=z.imag[..., 1 : self.n_sin + 1])
        return np.fft.irfft(z, self.n)

    def from_grid(self, u: np.ndarray) -> np.ndarray:
        w = np.fft.rfft(u)
        out = np.empty(u.shape[:-1] + (self.m,))
        np.multiply(w.real[..., 1 : self.n_cos + 1], self.scale_from, out=out[..., 0::2])
        np.multiply(w.imag[..., 1 : self.n_sin + 1], -self.scale_from, out=out[..., 1::2])
        return out


def build_operator(domain: DomainSpec, modes: int) -> OperatorSpec:
    """Assemble the diagonal operator and quadrature grid for ``modes`` modes.

    Raises :class:`PoincareViolationError` when the smallest eigenvalue drops
    below 1 (Dirichlet needs ``length <= pi``, periodic ``length <= 2*pi``)
    unless the domain opts out, in which case a warning string is recorded
    on the returned spec.
    """
    if not isinstance(modes, int) or isinstance(modes, bool) or modes < 1:
        raise ValueError("modes must be a positive int")
    l = domain.length
    floor = dealias_floor(modes, domain.bc)
    n = domain.grid_points if domain.grid_points is not None else default_grid_points(modes, domain.bc)
    if n < floor:
        raise ValueError(f"grid_points={n} is below the dealiasing floor {floor} for modes={modes}")

    if domain.bc == DIRICHLET:
        nodes = (np.arange(n) + 0.5) * (l / n)
        k = np.arange(1, modes + 1, dtype=np.float64)
        lam = (k * np.pi / l) ** 2
    else:
        nodes = np.arange(n) * (l / n)
        wavenumbers = np.arange(modes) // 2 + 1
        lam = (2.0 * np.pi * wavenumbers / l) ** 2
    weights = np.full(n, l / n)

    warnings: tuple[str, ...] = ()
    if lam[0] < 1.0:
        msg = (
            f"lambda_min={lam[0]:.6g} < 1 for length={l:g}, bc={domain.bc}; "
            "norm-equivalence constants in the energy estimates are invalid"
        )
        if not domain.allow_poincare_violation:
            raise PoincareViolationError(msg)
        warnings = (msg,)

    return OperatorSpec(
        domain=domain,
        modes=modes,
        eigenvalues=_readonly(lam),
        sqrt_eigenvalues=_readonly(np.sqrt(lam)),
        nodes=_readonly(nodes),
        weights=_readonly(weights),
        warnings=warnings,
    )


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficient vector in the eigenbasis of one operator."""

    coeffs: np.ndarray
    op: OperatorSpec

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (self.op.modes,):
            raise ValueError(f"coeffs must have shape ({self.op.modes},), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", _readonly(c))


def modes_to_grid(coeffs, op: OperatorSpec) -> np.ndarray:
    """Sample coefficient arrays on the grid, along the last axis of any batch shape."""
    c = np.asarray(coeffs, dtype=np.float64)
    if op._fft is not None:
        return op._fft.to_grid(c)
    return op.basis @ c if c.ndim == 1 else c @ op.basis.T


def grid_to_modes(samples, op: OperatorSpec) -> np.ndarray:
    """Project grid samples onto the retained modes, along the last axis of any batch shape."""
    u = np.asarray(samples, dtype=np.float64)
    if op._fft is not None:
        return op._fft.from_grid(u)
    return op.projection @ u if u.ndim == 1 else u @ op.projection.T


def transform_pair(op: OperatorSpec):
    """``(modes -> grid, grid -> modes)`` maps for 1-D vectors, picked once.

    At or above ``FFT_MIN_MODES`` they are the FFT pair that
    :func:`modes_to_grid` and :func:`grid_to_modes` use; below it they are
    the dense matrices' own ``dot``, the same BLAS matrix-vector product as
    ``@`` at a lower per-call cost.  A stepping loop that fetches the pair
    once pays no per-call dispatch.
    """
    if op._fft is not None:
        return op._fft.to_grid, op._fft.from_grid
    return op.basis.dot, op.projection.dot


def to_grid(x: SpectralField) -> np.ndarray:
    """Sample the field on the quadrature nodes."""
    return modes_to_grid(x.coeffs, x.op)


def from_grid(samples: np.ndarray, op: OperatorSpec) -> SpectralField:
    """Project grid samples onto the retained modes by quadrature."""
    u = np.asarray(samples, dtype=np.float64)
    if u.shape != (op.grid_points,):
        raise ValueError(f"samples must have shape ({op.grid_points},), got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("samples must be finite")
    return SpectralField(grid_to_modes(u, op), op)
