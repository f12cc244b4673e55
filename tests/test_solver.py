"""Modal assembly, initial-data projection, and the fixed-step integrator."""

import math

import numpy as np
import pytest

from wavegalerkin import kernels
from wavegalerkin.nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
    custom_lipschitz_forcing,
    custom_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    zero_forcing,
)
from wavegalerkin.oracle import reference_run
from wavegalerkin.solver import (
    RK4,
    STORMER_VERLET,
    SolverConfig,
    State,
    _numpy_accel,
    acceleration,
    initial_state_from_modal,
    integrate,
    project_initial_data,
)
from wavegalerkin.spectral import DIRICHLET, FFT_MIN_MODES, PERIODIC_MEAN_ZERO, DomainSpec, build_operator


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(T=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=2.0)
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=0.3)
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=0.1, sample_stride=3)
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=1e-3, integrator="euler")
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=1e-3, blowup_ceiling=0.0)
    cfg = SolverConfig(T=0.0, dt=1e-3)
    assert cfg.n_steps == 0
    assert SolverConfig(T=1.0, dt=1e-3, sample_stride=10).n_steps == 1000


def test_state_is_readonly_and_validated():
    with pytest.raises(ValueError):
        State(a=np.zeros(3), adot=np.zeros(4))
    s = State(a=np.arange(3.0), adot=np.zeros(3))
    with pytest.raises(ValueError):
        s.a[0] = 5.0


def test_acceleration_zero_state(op8):
    s = State(a=np.zeros(8), adot=np.zeros(8))
    acc = acceleration(s, op8, cubic_nonlinearity(), zero_forcing())
    assert np.all(acc == 0.0)


def test_acceleration_cubic_first_mode():
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 4)
    a = np.zeros(4)
    a[0] = 1.0
    acc = acceleration(State(a=a, adot=np.zeros(4)), op, cubic_nonlinearity(), zero_forcing())
    # F(e1) has coefficients (3/2, 0, -1/2, 0)
    want = np.array([-(math.pi ** 2) * 1.5, 0.0, (3.0 * math.pi) ** 2 * 0.5, 0.0])
    assert np.allclose(acc, want, rtol=1e-12, atol=1e-10)


def test_acceleration_implementations_agree(op8):
    rng = np.random.default_rng(12)
    a = 0.4 * rng.normal(size=8)
    adot = 0.4 * rng.normal(size=8)
    nl = cubic_nonlinearity()
    fs = affine_forcing(g1=0.3, g2=0.2, constant=0.1, g0=0.2)
    ref = acceleration(State(a=a, adot=adot), op8, nl, fs)
    closure = _numpy_accel(op8, nl, fs)(a, adot)
    out = np.empty(8)
    gc = fs.constant * (op8.projection @ np.ones(op8.grid_points))
    kernels._accel(
        a,
        adot,
        np.ascontiguousarray(op8.eigenvalues),
        np.ascontiguousarray(op8.sqrt_eigenvalues),
        np.ascontiguousarray(op8.basis),
        np.ascontiguousarray(op8.projection),
        kernels.NL_CUBIC,
        2.0,
        kernels.FORCING_AFFINE,
        fs.g1,
        fs.g2,
        np.ascontiguousarray(gc),
        out,
    )
    assert np.allclose(closure, ref, rtol=1e-12, atol=1e-13)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-13)

    # Every specialised closure: each nonlinearity kind under each forcing
    # kind, on the dense products (m=8) and on the FFT pair (m=512).
    table = tabulated_f(np.linspace(-2.0, 2.0, 21), np.linspace(-2.0, 2.0, 21) ** 3)
    nls = [
        linear_nonlinearity(),
        cubic_nonlinearity(),
        power_law_nonlinearity(3.5),
        custom_nonlinearity(f=table, p=4.0, a0=1.0, a1=1.0, b0=0.1, b1=0.0, F=table.F, Phi=table.Phi),
        custom_nonlinearity(f=lambda u: 3.0 * u * u, p=4.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0),
    ]
    forcings = [
        zero_forcing(),
        affine_forcing(g1=0.3, g2=0.2),
        affine_forcing(g1=0.3, g2=0.2, constant=0.1, g0=0.2),
        custom_lipschitz_forcing(lambda u, v: 0.2 * np.tanh(u) + 0.1 * v, g0=0.0, g1=0.2, g2=0.1),
    ]
    assert 512 >= FFT_MIN_MODES
    for op in (op8, build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 512)):
        a = 0.4 * rng.normal(size=op.modes) / np.arange(1, op.modes + 1)
        adot = 0.4 * rng.normal(size=op.modes) / np.arange(1, op.modes + 1)
        for nl in nls:
            for fs in forcings:
                ref = acceleration(State(a=a, adot=adot), op, nl, fs)
                closure = _numpy_accel(op, nl, fs)(a, adot)
                assert closure.shape == ref.shape
                assert np.allclose(closure, ref, rtol=1e-12, atol=1e-13), (op.modes, nl.kind, fs.kind)


def test_harmonic_mode_tracks_cosine(op8):
    init = initial_state_from_modal([1.0], [], op8).state
    traj = integrate(init, SolverConfig(T=2.0, dt=1e-3), op8, linear_nonlinearity(), zero_forcing())
    t = traj.times
    assert np.max(np.abs(traj.a[:, 0] - np.cos(math.pi * t))) <= 1e-9
    assert np.max(np.abs(traj.a[:, 1:])) == 0.0
    assert abs(traj.final_state.adot[0]) <= 1e-8


def test_rk4_error_scales_as_fourth_order(op8):
    init = initial_state_from_modal([1.0], [], op8).state
    errs = []
    for dt in (2e-3, 1e-3):
        traj = integrate(init, SolverConfig(T=2.0, dt=dt), op8, linear_nonlinearity(), zero_forcing())
        errs.append(np.max(np.abs(traj.a[:, 0] - np.cos(math.pi * traj.times))))
    assert 13.0 <= errs[0] / errs[1] <= 19.0


def test_symmetry_invariant_subspace_stays_exact():
    # odd sine modes are symmetric about the midpoint; the cubic keeps the
    # trajectory inside that subspace and the even coefficients stay at 0
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 6)
    init = initial_state_from_modal([0.5, 0.0, 0.3], [], op).state
    traj = integrate(init, SolverConfig(T=1.0, dt=1e-3), op, cubic_nonlinearity(), zero_forcing())
    assert np.max(np.abs(traj.a[:, 1::2])) <= 1e-12
    assert np.max(np.abs(traj.a[:, 0::2])) > 1e-2


def test_verlet_is_time_reversible(op8):
    init = initial_state_from_modal([0.4, 0.1], [0.0, 0.2], op8).state
    cfg = SolverConfig(T=1.0, dt=1e-3, integrator=STORMER_VERLET)
    fwd = integrate(init, cfg, op8, cubic_nonlinearity(), zero_forcing())
    flipped = State(a=fwd.final_state.a, adot=-fwd.final_state.adot, t=0.0)
    back = integrate(flipped, cfg, op8, cubic_nonlinearity(), zero_forcing())
    assert np.max(np.abs(back.final_state.a - init.a)) <= 1e-9
    assert np.max(np.abs(back.final_state.adot + init.adot)) <= 1e-9


def test_verlet_rejects_velocity_forcing(op8):
    init = initial_state_from_modal([0.1], [], op8).state
    cfg = SolverConfig(T=0.1, dt=1e-3, integrator=STORMER_VERLET)
    with pytest.raises(ValueError, match="velocity"):
        integrate(init, cfg, op8, cubic_nonlinearity(), affine_forcing(g2=0.1))
    traj = integrate(init, cfg, op8, cubic_nonlinearity(), affine_forcing(g1=0.1))
    assert len(traj) == 101


def test_divergence_flags_partial_trajectory(op8):
    init = initial_state_from_modal([50.0], [], op8).state
    cfg = SolverConfig(T=1.0, dt=1e-2, blowup_ceiling=1e6)
    traj = integrate(init, cfg, op8, cubic_nonlinearity(), zero_forcing())
    assert traj.diverged
    assert traj.diverged_at is not None and traj.diverged_at > 0.0
    assert traj.diverged_at == pytest.approx(traj.times[-1])
    last = np.abs(traj.a[-1])
    assert not np.all(np.isfinite(last)) or np.max(last) > 1e6
    assert len(traj) < cfg.n_steps + 1
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_input_checks(op8):
    cfg = SolverConfig(T=0.1, dt=1e-3)
    nl, fs = cubic_nonlinearity(), zero_forcing()
    with pytest.raises(ValueError):
        integrate(State(a=np.zeros(4), adot=np.zeros(4)), cfg, op8, nl, fs)
    with pytest.raises(ValueError):
        integrate(State(a=np.full(8, np.nan), adot=np.zeros(8)), cfg, op8, nl, fs)
    with pytest.raises(ValueError):
        integrate(State(a=np.zeros(8), adot=np.zeros(8), t=1.0), cfg, op8, nl, fs)


def test_project_parabola_initial_data(op8):
    u0 = op8.nodes * (1.0 - op8.nodes)
    data = project_initial_data(u0, np.zeros(op8.grid_points), op8)
    k = np.arange(1, 9)
    closed = np.where(k % 2 == 1, 4.0 * math.sqrt(2.0) / (k * math.pi) ** 3, 0.0)
    # midpoint quadrature on the default 17-point grid is O(h^2) accurate
    assert np.allclose(data.state.a, closed, atol=2e-5)
    assert np.max(np.abs(data.state.a[1::2])) <= 1e-12
    # dropped mass above mode 8 is about 3.07e-4
    assert 1e-4 < data.x0_tail_norm < 1e-3
    assert data.x0_tail_norm == pytest.approx(3.0716839307133538e-4, rel=0.3)
    assert data.x1_tail_norm == 0.0

    fine = build_operator(DomainSpec(length=1.0, bc=DIRICHLET, grid_points=257), 8)
    u0_fine = fine.nodes * (1.0 - fine.nodes)
    data_fine = project_initial_data(u0_fine, np.zeros(fine.grid_points), fine)
    assert np.allclose(data_fine.state.a, closed, atol=1e-7)
    assert np.max(np.abs(data_fine.state.a - closed)) < np.max(np.abs(data.state.a - closed))


def test_project_resolved_sine_has_no_tail():
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 4)
    u0 = np.sin(3.0 * math.pi * op.nodes)
    data = project_initial_data(u0, np.zeros(op.grid_points), op)
    assert data.state.a[2] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
    # the tail is sqrt of a roundoff-level residual, so ~sqrt(eps), not 0
    assert data.x0_tail_norm <= 1e-7


def test_project_unresolved_sine_is_all_tail():
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 2)
    u0 = np.sin(3.0 * math.pi * op.nodes)
    data = project_initial_data(u0, np.zeros(op.grid_points), op)
    assert np.max(np.abs(data.state.a)) <= 1e-12
    assert data.x0_tail_norm == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_modal_initial_data_truncates_and_pads(op8):
    long = np.arange(1.0, 11.0)
    data = initial_state_from_modal(long, [1.0, 2.0], op8)
    assert np.all(data.state.a == long[:8])
    assert data.x0_tail_norm == pytest.approx(math.sqrt(81.0 + 100.0))
    assert data.x1_tail_norm == 0.0
    assert np.all(data.state.adot[2:] == 0.0)
    with pytest.raises(ValueError):
        initial_state_from_modal([np.nan], [], op8)


def test_trajectory_sampling_and_zero_T(op8):
    init = initial_state_from_modal([0.3], [0.1], op8).state
    traj0 = integrate(init, SolverConfig(T=0.0, dt=1e-3), op8, cubic_nonlinearity(), zero_forcing())
    assert len(traj0) == 1
    assert traj0.times[0] == 0.0
    assert traj0.final_state.t == 0.0
    assert not traj0.diverged

    traj = integrate(init, SolverConfig(T=1.0, dt=1e-2, sample_stride=10), op8, cubic_nonlinearity(), zero_forcing())
    assert len(traj) == 11
    assert np.allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-12)
    assert np.all(traj.a[0] == init.a) and traj.energy.row(0).t == 0.0
    assert traj.cfg.integrator == RK4


def test_custom_kind_forces_numpy_backend(op8, compiled_branch):
    from wavegalerkin.nonlinearity import custom_nonlinearity

    nl = custom_nonlinearity(f=lambda u: 3.0 * u * u, p=4.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)
    init = initial_state_from_modal([0.2], [], op8).state
    traj = integrate(init, SolverConfig(T=0.1, dt=1e-3), op8, nl, zero_forcing())
    assert traj.backend == "numpy"
    fast = integrate(init, SolverConfig(T=0.1, dt=1e-3), op8, cubic_nonlinearity(), zero_forcing())
    assert fast.backend == "numba"
    assert np.allclose(traj.a, fast.a, atol=1e-10)


@pytest.mark.parametrize(
    "bc,nl,fs",
    [
        (DIRICHLET, power_law_nonlinearity(4.0), zero_forcing()),
        (PERIODIC_MEAN_ZERO, cubic_nonlinearity(), affine_forcing(g1=0.3, g2=0.2, constant=0.5, g0=0.5)),
    ],
    ids=["dirichlet-power_law", "periodic-affine-cubic"],
)
def test_m512_trajectory_matches_dense_oracle(monkeypatch, bc, nl, fs):
    # m=512 steps, projects its initial data and evaluates its forcing on
    # the FFT pair; the oracle runs its own full dense products.
    monkeypatch.setenv(kernels.ENV_NO_NUMBA, "1")
    m = 512
    assert m >= FFT_MIN_MODES
    op = build_operator(DomainSpec(length=1.0, bc=bc), m)
    x = op.nodes
    u0 = x * (1.0 - x) if bc == DIRICHLET else 0.8 * np.sin(2.0 * math.pi * x)
    init = project_initial_data(u0, 0.3 * np.sin(2.0 * math.pi * x), op).state
    cfg = SolverConfig(T=0.025, dt=2.5e-4, sample_stride=10)
    traj = integrate(init, cfg, op, nl, fs)
    assert traj.backend == "numpy" and not traj.diverged
    ref = reference_run(op.domain, nl, fs, init.a, init.adot, cfg.T, m, cfg.dt, sample_stride=cfg.sample_stride)
    diff = ref.a - traj.a
    gap = np.sqrt(np.max(np.sum(diff * diff, axis=1))) / np.max(np.linalg.norm(ref.a, axis=1))
    assert gap <= 1e-9
    assert np.max(np.abs(traj.a[-1] - init.a)) > 1e-3
