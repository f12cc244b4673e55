"""Basis construction, grid transforms, diagonal operators, and norms."""

import gc
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavegalerkin
from wavegalerkin.nonlinearity import cubic_nonlinearity, pointwise_F
from wavegalerkin.oracle import _oracle_nodes
from wavegalerkin.spectral import (
    DIRICHLET,
    FFT_MIN_MODES,
    PERIODIC_MEAN_ZERO,
    DomainSpec,
    PoincareViolationError,
    SpectralField,
    _DirichletFFT,
    _PeriodicFFT,
    build_operator,
    dealias_floor,
    default_grid_points,
    from_grid,
    grid_to_modes,
    modes_to_grid,
    to_grid,
)


def test_dirichlet_eigenvalues_match_sine_frequencies():
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 6)
    k = np.arange(1, 7)
    assert np.allclose(op.eigenvalues, (k * np.pi) ** 2, rtol=1e-14)
    assert np.allclose(op.sqrt_eigenvalues, k * np.pi, rtol=1e-14)

    op_pi = build_operator(DomainSpec(length=math.pi, bc=DIRICHLET), 4)
    assert np.allclose(op_pi.eigenvalues, np.arange(1, 5) ** 2, rtol=1e-14)
    assert op_pi.lambda_min >= 1.0


def test_periodic_eigenvalues_come_in_cos_sin_pairs():
    op = build_operator(DomainSpec(length=2.0 * math.pi, bc=PERIODIC_MEAN_ZERO), 6)
    assert np.allclose(op.eigenvalues, [1.0, 1.0, 4.0, 4.0, 9.0, 9.0], rtol=1e-14)
    assert op.lambda_min == pytest.approx(1.0)


def test_long_interval_rejected_unless_overridden():
    dom = DomainSpec(length=4.0, bc=DIRICHLET)
    with pytest.raises(PoincareViolationError):
        build_operator(dom, 4)
    op = build_operator(DomainSpec(length=4.0, bc=DIRICHLET, allow_poincare_violation=True), 4)
    assert op.lambda_min < 1.0
    assert len(op.warnings) == 1 and "lambda_min" in op.warnings[0]

    with pytest.raises(PoincareViolationError):
        build_operator(DomainSpec(length=3.0 * math.pi, bc=PERIODIC_MEAN_ZERO), 2)


def test_basis_is_orthonormal_under_quadrature():
    for bc, l in ((DIRICHLET, 1.0), (PERIODIC_MEAN_ZERO, 5.0)):
        op = build_operator(DomainSpec(length=l, bc=bc), 7)
        gram = op.projection @ op.basis
        assert np.allclose(gram, np.eye(7), atol=1e-12)


def test_grid_roundtrip_recovers_coefficients():
    rng = np.random.default_rng(3)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        op = build_operator(DomainSpec(length=2.0, bc=bc), 7)
        x = SpectralField(rng.normal(size=7), op)
        back = from_grid(to_grid(x), op)
        assert np.allclose(back.coeffs, x.coeffs, atol=1e-13)


def test_parseval_norm_and_inner(op8):
    # quadrature of u^2 is the coefficient 2-norm squared
    c = np.zeros(8)
    c[0], c[1] = 3.0, 4.0
    u = modes_to_grid(c, op8)
    assert float(op8.weights @ (u * u)) == pytest.approx(25.0, rel=1e-13)
    # quadrature pairing of the sampled functions agrees with the modal dot
    rng = np.random.default_rng(5)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    quad = float(op8.weights @ (modes_to_grid(a, op8) * modes_to_grid(b, op8)))
    assert quad == pytest.approx(float(a @ b), rel=1e-12, abs=1e-13)


def test_half_operator_squares_to_full(op8):
    assert np.allclose(op8.sqrt_eigenvalues ** 2, op8.eigenvalues, rtol=1e-13)
    # <Ax, x> = ||Bx||^2
    x = np.random.default_rng(7).normal(size=8)
    assert float((op8.eigenvalues * x) @ x) == pytest.approx(float(np.linalg.norm(op8.sqrt_eigenvalues * x)) ** 2, rel=1e-12)


def test_unresolvable_mode_projects_to_zero():
    # sin(9 pi xi) on the m=4 grid: all retained pairings integrate exactly
    # to zero because the quadrature is exact through frequency 2N-1 = 17.
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 4)
    u = np.sin(9.0 * np.pi * op.nodes)
    x = from_grid(u, op)
    assert np.max(np.abs(x.coeffs)) < 1e-12


def test_L4_norm_of_first_mode(op8):
    # int_0^1 (sqrt(2) sin(pi xi))^4 dxi = 3/2, so the L4 norm is (3/2)^(1/4)
    u = modes_to_grid(np.eye(8)[0], op8)
    assert float(op8.weights @ u ** 4) ** 0.25 == pytest.approx(1.5 ** 0.25, rel=1e-12)


def test_dealias_floor_table():
    assert [dealias_floor(m, DIRICHLET) for m in range(1, 7)] == [2, 3, 5, 6, 8, 9]
    assert [dealias_floor(m, PERIODIC_MEAN_ZERO) for m in range(1, 7)] == [3, 3, 5, 6, 8, 9]


def test_default_grid_clears_dealias_floor():
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        for m in range(1, 41):
            assert default_grid_points(m, bc) >= dealias_floor(m, bc)


def test_grid_below_floor_rejected():
    dom = DomainSpec(length=1.0, bc=DIRICHLET, grid_points=5)
    with pytest.raises(ValueError, match="dealiasing floor"):
        build_operator(dom, 4)


def test_field_validation(op8):
    with pytest.raises(ValueError):
        SpectralField(np.zeros(7), op8)
    with pytest.raises(ValueError):
        SpectralField(np.array([np.nan] + [0.0] * 7), op8)
    x = SpectralField(0.5 * np.eye(8)[1], op8)
    assert x.coeffs[1] == 0.5
    with pytest.raises(ValueError):
        x.coeffs[0] = 1.0


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(length=0.0, bc=DIRICHLET)
    with pytest.raises(ValueError):
        DomainSpec(length=1.0, bc="clamped")
    with pytest.raises(ValueError):
        DomainSpec(length=1.0, bc=DIRICHLET, grid_points=0)
    with pytest.raises(ValueError):
        build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 0)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _exact_floor(m, bc):
    # the smallest grid on which quartic products of retained modes are exact
    return 2 * m + 1 if bc == DIRICHLET else 4 * ((m + 1) // 2) + 1


def _prime_grid(m, bc):
    # Default grids at or above the crossover are 5-smooth, so a prime-length
    # FFT is reached only through an explicit grid_points.
    n = _exact_floor(m, bc)
    while not _is_prime(n):
        n += 1
    return n


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


FFT_MODES = [
    (bc, m, n)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO)
    for m, n in (
        (FFT_MIN_MODES, None),
        (FFT_MIN_MODES + 1, None),
        (FFT_MIN_MODES + 2, _prime_grid(FFT_MIN_MODES + 2, bc)),
        (512, None),
    )
]


@pytest.mark.parametrize("bc,m,n", FFT_MODES)
def test_fft_transforms_match_dense_products(bc, m, n):
    op = build_operator(DomainSpec(length=1.3, bc=bc, grid_points=n), m)
    assert n is None or op.grid_points == n
    rng = np.random.default_rng(m)
    cases = []
    for batch in ((), (3,), (2, 2)):
        c = rng.normal(size=batch + (m,))
        u = rng.normal(size=batch + (op.grid_points,))
        grid = modes_to_grid(c, op)
        cases.append((c, u, grid, grid_to_modes(u, op), grid_to_modes(grid, op)))
    # the FFT path leaves the dense matrices unbuilt
    assert "basis" not in vars(op) and "projection" not in vars(op)
    for c, u, grid, modes, back in cases:
        assert grid.shape == u.shape and modes.shape == c.shape
        assert _rel(grid, c @ op.basis.T) <= 1e-12
        assert _rel(modes, u @ op.projection.T) <= 1e-12
        assert _rel(back, c) <= 1e-12


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_fft_transforms_on_fields_and_fine_grids(bc):
    rng = np.random.default_rng(4)
    m = FFT_MIN_MODES + 1
    # the dealiasing floor leaves m above n/2, where the Dirichlet projection
    # reads FFT bins past the Nyquist one
    for n in (None, dealias_floor(m, bc), 3 * m):
        op = build_operator(DomainSpec(length=0.8, bc=bc, grid_points=n), m)
        x = SpectralField(rng.normal(size=m), op)
        u = to_grid(x)
        assert u.shape == (op.grid_points,)
        assert _rel(from_grid(u, op).coeffs, x.coeffs) <= 1e-12
        assert _rel(u, op.basis @ x.coeffs) <= 1e-12
        samples = rng.normal(size=op.grid_points)
        assert _rel(from_grid(samples, op).coeffs, op.projection @ samples) <= 1e-12


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_fft_vector_maps_on_grids_of_both_parities(bc):
    # The floor and floor+1 give grids of both parities.  A vector maps as
    # the row of a batch does, in the natural grid order.
    rng = np.random.default_rng(5)
    for m in (FFT_MIN_MODES, FFT_MIN_MODES + 1, 512):
        for n in (None, dealias_floor(m, bc), dealias_floor(m, bc) + 1, 3 * m):
            op = build_operator(DomainSpec(length=0.8, bc=bc, grid_points=n), m)
            c = rng.normal(size=m)
            u = rng.normal(size=op.grid_points)
            grid, modes = modes_to_grid(c, op), grid_to_modes(u, op)
            back = grid_to_modes(grid, op)
            assert np.array_equal(grid, modes_to_grid(c[None], op)[0])
            assert np.array_equal(modes, grid_to_modes(u[None], op)[0])
            # the FFT pair leaves the full matrices unbuilt
            assert "basis" not in vars(op) and "projection" not in vars(op)
            assert grid.shape == u.shape and modes.shape == c.shape
            assert _rel(grid, op.basis @ c) <= 1e-12
            assert _rel(modes, op.projection @ u) <= 1e-12
            assert _rel(back, c) <= 1e-12


def test_fft_constants_belong_to_their_operator():
    # Operators built and freed in turn can reuse one id(); each must still
    # use its own size and length.
    rng = np.random.default_rng(6)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        for m, length in ((FFT_MIN_MODES + 3, 1.0), (FFT_MIN_MODES, 0.5), (FFT_MIN_MODES + 3, 0.25)):
            op = build_operator(DomainSpec(length=length, bc=bc), m)
            c = rng.normal(size=m)
            u = modes_to_grid(c, op)
            assert u.shape == (op.grid_points,)
            assert _rel(u, op.basis @ c) <= 1e-12
            assert _rel(grid_to_modes(u, op), c) <= 1e-12
            del op, u
            gc.collect()


def test_dense_transforms_below_crossover_are_the_matrix_products():
    rng = np.random.default_rng(8)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        op = build_operator(DomainSpec(length=1.0, bc=bc), FFT_MIN_MODES - 1)
        c = rng.normal(size=(2, op.modes))
        u = rng.normal(size=(2, op.grid_points))
        assert np.array_equal(modes_to_grid(c[0], op), op.basis @ c[0])
        assert np.array_equal(modes_to_grid(c, op), c @ op.basis.T)
        assert np.array_equal(grid_to_modes(u[0], op), op.projection @ u[0])
        assert np.array_equal(grid_to_modes(u, op), u @ op.projection.T)


def _is_5_smooth(n):
    return max(p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)) <= 5


def _exact_quartic(bc, length, modes):
    # Closed form of the integral over (0, length) of four orthonormal
    # eigenfunctions: each is a sum of two exponentials, and an exponential
    # integrates to `length` when its frequency sum is 0, else to 0.
    total = 0.0
    n_sin = sum(bc == DIRICHLET or k % 2 == 1 for k in modes)
    wave = [k + 1 if bc == DIRICHLET else k // 2 + 1 for k in modes]
    for signs in np.ndindex(2, 2, 2, 2):
        eps = [1 - 2 * s for s in signs]
        if sum(e * w for e, w in zip(eps, wave)) == 0:
            # a sine factor carries its sign, and (-i)^n_sin is real for even n_sin
            total += math.prod(e for e, k in zip(eps, modes) if bc == DIRICHLET or k % 2 == 1)
    return total * (-1) ** (n_sin // 2) * (n_sin % 2 == 0) / (4.0 * length)


def _eigenfunctions(bc, length, modes, x):
    k = np.asarray(modes)
    if bc == DIRICHLET:
        return math.sqrt(2.0 / length) * np.sin(np.outer(x, (k + 1) * np.pi / length))
    phase = np.outer(x, 2.0 * np.pi * (k // 2 + 1) / length)
    return math.sqrt(2.0 / length) * np.where(k % 2 == 0, np.cos(phase), np.sin(phase))


GRID_RULE_MODES = [
    (bc, m)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO)
    for m in (FFT_MIN_MODES, FFT_MIN_MODES + 1, 512, 768, 1024, 1500)
]


@pytest.mark.parametrize("bc,m", GRID_RULE_MODES)
def test_default_grid_is_the_smallest_5_smooth_exact_grid(bc, m):
    n, floor = default_grid_points(m, bc), _exact_floor(m, bc)
    assert n >= floor and _is_5_smooth(n)
    assert not any(_is_5_smooth(k) for k in range(floor, n))
    length = 0.7
    op = build_operator(DomainSpec(length=length, bc=bc), m)
    assert op.grid_points == n
    # the oracle reaches the same grid on its own
    assert np.array_equal(_oracle_nodes(DomainSpec(length=length, bc=bc), m), op.nodes)
    # quartic products of retained modes integrate exactly, the top modes'
    # (which reach the largest frequency) among them
    rng = np.random.default_rng(m)
    quads = [(m - 1,) * 4, (m - 1, m - 1, m - 2, m - 2)]
    quads += [tuple(rng.integers(m - 6, m, size=4)) for _ in range(12)]
    quads += [tuple(rng.integers(0, m, size=4)) for _ in range(12)]
    for quad in quads:
        phi = _eigenfunctions(bc, length, quad, op.nodes)
        got = float(op.weights @ np.prod(phi, axis=1))
        assert got == pytest.approx(_exact_quartic(bc, length, quad), abs=1e-11), quad
    # one point fewer than the floor aliases the top quartic product
    coarse = build_operator(DomainSpec(length=length, bc=bc, grid_points=floor - 1), m // 2)
    phi = _eigenfunctions(bc, length, quads[0], coarse.nodes)
    aliased = float(coarse.weights @ np.prod(phi, axis=1))
    assert abs(aliased - _exact_quartic(bc, length, quads[0])) > 0.1 / length


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_grid_below_the_crossover_and_given_grids_are_unchanged(bc):
    assert [default_grid_points(m, bc) for m in range(1, FFT_MIN_MODES)] == [
        _exact_floor(m, bc) for m in range(1, FFT_MIN_MODES)
    ]
    # a given grid size is used as given, prime or not
    for m in (FFT_MIN_MODES - 1, 512):
        n = _prime_grid(m, bc)
        assert build_operator(DomainSpec(length=1.0, bc=bc, grid_points=n), m).grid_points == n


def _public_fft_plan(plan):
    """The same plan with its FFTs through numpy.fft's public wrappers."""
    n = plan.n
    plan._irfft = lambda z, fct, out: np.fft.irfft(z, n, out=out)
    plan._rfft = lambda u, fct, out: np.fft.rfft(u, out=out)
    return plan


@pytest.mark.parametrize("n", [769, 1025, 1080, 1536])
@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_plan_ffts_are_numpy_fft_bit_for_bit(bc, n):
    # The plans call numpy's private pocketfft gufuncs.  If a numpy release
    # moves or changes them, this fails rather than the trajectories drift.
    kind = _DirichletFFT if bc == DIRICHLET else _PeriodicFFT
    m = (n - 1) // 2 if bc == DIRICHLET else 2 * ((n - 1) // 4) - 1
    plan, public = kind(m, n, 0.9), _public_fft_plan(kind(m, n, 0.9))
    rng = np.random.default_rng(n)
    for batch in ((), (3,), (2, 2)):
        u = rng.normal(size=batch + (n,))
        z = np.fft.rfft(u)
        w = np.empty_like(z)
        assert plan._rfft(u, 1, out=w) is w and np.array_equal(w, z)
        back = np.empty_like(u)
        assert plan._irfft(z, plan._inv_n, out=back) is back and np.array_equal(back, np.fft.irfft(z, n))
        c = rng.normal(size=batch + (m,))
        assert np.array_equal(plan.to_grid(c), public.to_grid(c))
        assert np.array_equal(plan.from_grid(u), public.from_grid(u))
    F = pointwise_F(cubic_nonlinearity())
    scale = -rng.uniform(1.0, 2.0, m)
    a = rng.normal(size=m) / m
    for odd in (True, False):
        got, want = np.empty(m), np.empty(m)
        plan.galerkin(F, scale, odd)(a, got)
        public.galerkin(F, scale, odd)(a, want)
        assert np.array_equal(got, want)


def test_numpy_fft_is_imported_by_the_first_fft_plan_only():
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    code = (
        "import sys, wavegalerkin.cli\n"
        "from wavegalerkin.spectral import FFT_MIN_MODES, DomainSpec, build_operator\n"
        "assert 'numpy.fft' not in sys.modules, 'importing the CLI loaded numpy.fft'\n"
        "build_operator(DomainSpec(length=1.0, bc='dirichlet'), FFT_MIN_MODES - 1).basis\n"
        "assert 'numpy.fft' not in sys.modules, 'a dense operator loaded numpy.fft'\n"
        "assert build_operator(DomainSpec(length=1.0, bc='dirichlet'), FFT_MIN_MODES)._fft is not None\n"
        "assert 'numpy.fft._pocketfft_umath' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src_dir, timeout=300)
    assert proc.returncode == 0, proc.stderr
