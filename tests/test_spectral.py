"""Basis construction, grid transforms, diagonal operators, and norms."""

import gc
import math

import numpy as np
import pytest

from wavegalerkin.spectral import (
    DIRICHLET,
    FFT_MIN_MODES,
    PERIODIC_MEAN_ZERO,
    DomainSpec,
    PoincareViolationError,
    SpectralField,
    build_operator,
    dealias_floor,
    default_grid_points,
    from_grid,
    grid_to_modes,
    modes_to_grid,
    to_grid,
    transform_pair,
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


def _prime_grid_modes(bc):
    m = FFT_MIN_MODES + 2
    while not _is_prime(default_grid_points(m, bc)):
        m += 1
    return m


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


FFT_MODES = [
    (bc, m)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO)
    for m in (FFT_MIN_MODES, FFT_MIN_MODES + 1, _prime_grid_modes(bc), 512)
]


@pytest.mark.parametrize("bc,m", FFT_MODES)
def test_fft_transforms_match_dense_products(bc, m):
    op = build_operator(DomainSpec(length=1.3, bc=bc), m)
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
def test_stepping_pair_is_the_fft_pair(bc):
    # The floor and floor+1 give grids of both parities.
    rng = np.random.default_rng(5)
    for m in (FFT_MIN_MODES, FFT_MIN_MODES + 1, 512):
        for n in (None, dealias_floor(m, bc), dealias_floor(m, bc) + 1, 3 * m):
            op = build_operator(DomainSpec(length=0.8, bc=bc, grid_points=n), m)
            sample, project = transform_pair(op)
            c = rng.normal(size=m)
            u = rng.normal(size=op.grid_points)
            grid, modes, back = sample(c), project(u), project(sample(c))
            assert np.array_equal(grid, modes_to_grid(c, op))
            assert np.array_equal(modes, grid_to_modes(u, op))
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
        sample, project = transform_pair(op)
        assert np.array_equal(sample(c[0]), op.basis @ c[0])
        assert np.array_equal(project(u[0]), op.projection @ u[0])
