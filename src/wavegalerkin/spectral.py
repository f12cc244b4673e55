"""Eigenbasis calculus on an interval.

Everything downstream works in the eigenbasis of the second-derivative
operator ``A`` on ``(0, length)``: Dirichlet sine modes, or mean-zero
Fourier modes for the periodic case.  ``A`` and its powers act diagonally
on coefficients; grid transforms use a quadrature rule that integrates
products of retained basis functions exactly, so projections of polynomial
nonlinearities are alias-free at the default grid size.  Below
``FFT_MIN_MODES`` modes the transforms are dense matrix products; at or
above it they all run on numpy's pocketfft gufuncs, the stepping loop's
Galerkin term included (``_RealFFT.galerkin``), and the default grid size
is the smallest 5-smooth one that keeps those products exact.
:func:`build_operator` refuses only what it cannot build; the Poincare
condition ``lambda_min >= 1`` is stated by ``OperatorSpec.lambda_min`` and
decided by :func:`wavegalerkin.nonlinearity.verify_conditions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DomainSpec",
    "FFT_MIN_MODES",
    "OperatorSpec",
    "SpectralField",
    "build_operator",
    "dealias_floor",
    "default_grid_points",
    "from_grid",
    "grid_to_modes",
    "modes_to_grid",
    "to_grid",
]

DIRICHLET = "dirichlet"
PERIODIC_MEAN_ZERO = "periodic_mean_zero"
BOUNDARY_KINDS = (DIRICHLET, PERIODIC_MEAN_ZERO)

# Smallest mode count whose grid transforms run on an FFT; below it they are
# dense products.  Set from the crossover sweep in
# benchmarks/bench_transforms.py, which times the stepping term as the program
# builds it on either side: dense products on the smallest exact grid, the FFT
# on the 5-smooth grid at or above it.  Two sweeps (m 128-1024, best of 5
# rounds, one Xeon core, numpy 2.4) put the crossover, from which the FFT was
# no slower at every swept m, at 152 and 160 for Dirichlet and at 149 twice
# for periodic; the constant takes the largest.  Dirichlet rows of the second
# sweep, per call in us:
#      m  n_dense  n_fft   dense    fft
#    128      257    270    12.9   17.3
#    144      289    300    16.3   17.3
#    152      305    320    16.8   17.3
#    160      321    324    18.6   16.0
#    256      513    540    48.6   14.1
#    512     1025   1080   317.6   21.9
FFT_MIN_MODES = 160


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DomainSpec:
    """Interval geometry and boundary condition.

    ``grid_points`` of ``None`` asks :func:`build_operator` for
    :func:`default_grid_points`: the smallest grid that makes quartic
    products of basis functions integrate exactly, or from ``FFT_MIN_MODES``
    modes on the smallest 5-smooth one at or above it.  A given
    ``grid_points`` is used as given.
    """

    length: float
    bc: str
    grid_points: int | None = None

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
    """Grid size making products of up to four retained modes exact.

    Below ``FFT_MIN_MODES`` it is the smallest such size.  At or above it,
    where the transforms are FFTs, it is the smallest 5-smooth size (no
    prime factor above 5) at or above that floor: every size above the
    floor keeps quartic products exact, and pocketfft handles a larger
    prime factor in a slow generic pass.
    """
    if bc == DIRICHLET:
        # Midpoint rule on N points integrates cos(q*pi*xi/l) exactly for
        # q <= 2N - 1; quartic products reach q = 4*modes.
        n = 2 * modes + 1
    else:
        # Trapezoid rule on N points integrates wavenumber q exactly unless
        # N divides q; quartic products reach q = 4*wavenumber_max.
        n = 4 * ((modes + 1) // 2) + 1
    return _smooth_at_least(n) if modes >= FFT_MIN_MODES else n


def _smooth_at_least(n: int) -> int:
    """Smallest ``2^i 3^j 5^k`` at or above ``n``."""
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        q = p3
        while q < best:
            # the smallest q * 2^i at or above n
            best = min(best, q << ((n - 1) // q).bit_length())
            q *= 5
        p3 *= 3
    return best


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
        plan = _DirichletFFT if self.domain.bc == DIRICHLET else _PeriodicFFT
        return plan(self.modes, self.grid_points, self.domain.length) if self.modes >= FFT_MIN_MODES else None


class _RealFFT:
    """Grid transforms through one length-n real FFT: ``_spectrum`` fills the
    half-spectrum whose inverse samples the coefficients in the plan's grid
    order, ``_modes`` reads them from a forward FFT with ``width`` bins.

    The FFTs call numpy's pocketfft gufuncs, ``irfft`` with the factor
    ``1/n`` and ``rfft_n_even`` or ``rfft_n_odd`` with the factor 1, which
    are the calls ``numpy.fft.irfft`` and ``numpy.fft.rfft`` make, so the
    results are the same bits without the wrappers' per-call checks.  Where
    the private module that holds them does not import, the plan calls those
    public wrappers, with the same output arrays.  Either is imported when a
    plan is made, so importing this module does not load ``numpy.fft``.
    """

    sign = None  # sign flips of the grid order against the natural one

    def __init__(self, m: int, n: int) -> None:
        self.m, self.n = m, n
        self._inv_n = 1.0 / n
        try:
            import numpy.fft._pocketfft_umath as pocketfft
        except ImportError:
            irfft, rfft = np.fft.irfft, np.fft.rfft
            self._irfft = lambda z, fct, out: irfft(z, n, out=out)
            self._rfft = lambda u, fct, out: rfft(u, out=out)
        else:
            self._irfft = pocketfft.irfft
            self._rfft = pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd

    def galerkin(self, F, scale: np.ndarray, odd: bool, rows: int):
        """``term(Y, out)`` writing ``scale * P F(B y)`` of each row ``y`` of ``Y`` into that row of ``out``.

        ``Y`` and ``out`` are ``(rows, m)`` blocks; the transforms run on
        ``(rows, n)`` blocks of buffers of the term's own.  ``odd`` says that
        the pointwise ``F(u, out)`` has ``F(-u) = -F(u)`` in floating point."""
        n, half = self.n, self.n // 2 + 1
        z, w = np.zeros((rows, half), dtype=np.complex128), np.zeros((rows, self.width), dtype=np.complex128)
        W, c = w[:, :half], np.empty((rows, self.m), dtype=self.coeff_dtype)
        u, Fu = np.empty((2, rows, n))
        flip = None if odd else self.sign
        spectrum, modes, mul = self._spectrum, self._modes, np.multiply
        irfft, rfft, inv_n = self._irfft, self._rfft, self._inv_n

        def term(Y, out):
            irfft(spectrum(Y, z), inv_n, out=u)  # bin 0 and the unfilled bins of z stay zero
            rfft(F(u, Fu) if flip is None else mul(F(mul(u, flip, u), Fu), flip, Fu), 1, out=W)
            mul(scale, modes(w, c), out)

        return term

    def to_grid(self, c: np.ndarray) -> np.ndarray:
        z = np.zeros(c.shape[:-1] + (self.n // 2 + 1,), dtype=np.complex128)
        return self._irfft(self._spectrum(c, z), self._inv_n, out=np.empty(c.shape[:-1] + (self.n,)))

    def from_grid(self, u: np.ndarray) -> np.ndarray:
        w = np.empty(u.shape[:-1] + (self.width,), dtype=np.complex128)
        self._rfft(u, 1, out=w[..., : self.n // 2 + 1])
        return self._modes(w, np.empty(u.shape[:-1] + (self.m,), dtype=self.coeff_dtype))


class _DirichletFFT(_RealFFT):
    """Sine transforms on the midpoint grid through one length-n real FFT.

    Sampling is a DST-III and projection a DST-II.  Makhoul's reordering
    (IEEE TASSP 28(1), 1980) maps either onto a real FFT of the grid length
    n: even grid indices in order, then odd ones reversed, the latter with a
    minus sign.  With ``T_q = e^{i pi q / 2n}``, projection reads
    ``c_k = -Im(T_k^* W_k) * sqrt(2 l) / n`` from ``W = rfft(reordered u)``,
    and sampling inverts it from ``W_q = T_q (a_{n-q} - i a_q) * (n/2) sqrt(2/l)``.

    The Galerkin term skips the reorderings that the batch maps apply: as
    ``sign[r] * inv_sign[perm[r]] = 1``, around a pointwise F they leave
    ``sign * F(sign * y)`` of the reordered samples y.  That is ``F(y)`` for
    an F odd in floating point, as the cubic and the power law are (a sign
    flip is exact, and they act on ``|u|`` and the sign alone).
    """

    coeff_dtype = np.complex128

    def __init__(self, m: int, n: int, length: float) -> None:
        super().__init__(m, n)
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
        # only on grids coarser than the default, where m >= n/2 and the
        # first fill has rewritten every bin it adds to.
        self.low = min(m, half - 1)
        self.tw_low = -1j * tw[1 : self.low + 1]
        self.tw_high = tw[n - m :] if n - m < half else None
        self.width = max(half, m + 1)

    def _spectrum(self, c: np.ndarray, z: np.ndarray) -> np.ndarray:
        n = self.n
        np.multiply(c[..., : self.low], self.tw_low, out=z[..., 1 : self.low + 1])
        if self.tw_high is not None:
            z[..., n - self.m :] += c[..., n - n // 2 - 1 : self.m][..., ::-1] * self.tw_high
        return z

    def _modes(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        n, half = self.n, self.n // 2 + 1
        if self.m >= half:
            # Bins above n//2 are conjugates of the ones below.
            np.conjugate(w[..., n - half : n - self.m - 1 : -1], out=w[..., half : self.m + 1])
        return np.multiply(w[..., 1 : self.m + 1], self.tw_from, out=out).imag

    def to_grid(self, c: np.ndarray) -> np.ndarray:
        return super().to_grid(c).take(self.inv_perm, axis=-1) * self.inv_sign

    def from_grid(self, u: np.ndarray) -> np.ndarray:
        return super().from_grid(u.take(self.perm, axis=-1) * self.sign)


class _PeriodicFFT(_RealFFT):
    """Cosine/sine pairs on the trapezoid grid through one length-n real FFT.

    Mode pair ``(2j, 2j+1)`` is wavenumber ``j+1``: the real part of rfft bin
    ``j+1`` and minus its imaginary part, scaled by ``sqrt(2 l) / n``.  The
    dealiasing floor keeps every wavenumber below ``n/2``.
    """

    coeff_dtype = np.float64

    def __init__(self, m: int, n: int, length: float) -> None:
        super().__init__(m, n)
        self.width = n // 2 + 1
        self.n_cos, self.n_sin = (m + 1) // 2, m // 2
        self.scale_to = 0.5 * n * math.sqrt(2.0 / length)
        self.scale_from = math.sqrt(2.0 * length) / n

    def _spectrum(self, c: np.ndarray, z: np.ndarray) -> np.ndarray:
        np.multiply(c[..., 0::2], self.scale_to, out=z.real[..., 1 : self.n_cos + 1])
        np.multiply(c[..., 1::2], -self.scale_to, out=z.imag[..., 1 : self.n_sin + 1])
        return z

    def _modes(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(w.real[..., 1 : self.n_cos + 1], self.scale_from, out=out[..., 0::2])
        np.multiply(w.imag[..., 1 : self.n_sin + 1], -self.scale_from, out=out[..., 1::2])
        return out


def build_operator(domain: DomainSpec, modes: int) -> OperatorSpec:
    """Assemble the diagonal operator and quadrature grid for ``modes`` modes.

    Raises ``ValueError`` when the grid is below the dealiasing floor or the
    largest eigenvalue overflows a float.  A smallest eigenvalue below 1
    (Dirichlet needs ``length <= pi``, periodic ``length <= 2*pi``) builds
    too: :func:`~wavegalerkin.nonlinearity.verify_conditions` decides it.
    """
    if not isinstance(modes, int) or isinstance(modes, bool) or modes < 1:
        raise ValueError("modes must be a positive int")
    l = domain.length
    floor = dealias_floor(modes, domain.bc)
    n = domain.grid_points if domain.grid_points is not None else default_grid_points(modes, domain.bc)
    if n < floor:
        raise ValueError(f"grid_points={n} is below the dealiasing floor {floor} for modes={modes}")

    with np.errstate(over="ignore"):
        if domain.bc == DIRICHLET:
            nodes = (np.arange(n) + 0.5) * (l / n)
            k = np.arange(1, modes + 1, dtype=np.float64)
            lam = (k * np.pi / l) ** 2
        else:
            nodes = np.arange(n) * (l / n)
            wavenumbers = np.arange(modes) // 2 + 1
            lam = (2.0 * np.pi * wavenumbers / l) ** 2
    if not np.isfinite(lam[-1]):
        raise ValueError(f"length={l:g} is too small: the eigenvalues of {modes} modes overflow a float")
    weights = np.full(n, l / n)
    return OperatorSpec(
        domain=domain,
        modes=modes,
        eigenvalues=_readonly(lam),
        sqrt_eigenvalues=_readonly(np.sqrt(lam)),
        nodes=_readonly(nodes),
        weights=_readonly(weights),
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
