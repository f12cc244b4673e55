"""Modal assembly, initial-data projection, and the fixed-step integrator."""

import math

import numpy as np
import pytest

from wavegalerkin.nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
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
    _stepping_terms,
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


def _closure_value(op, nl, fs, a, adot, calls=1):
    # The acceleration as the stepping loop composes it: the Galerkin term,
    # called ``calls`` times into one ``out`` and only reading ``a``, plus
    # the forcing's linear part.
    galerkin, g1, damping = _stepping_terms(op, nl, fs)
    before = a.copy()
    out = np.full(op.modes, np.nan)
    for _ in range(calls):
        galerkin(a, out)
    assert np.array_equal(a, before)
    out += g1 * a
    return out if damping is None else out + damping * adot


def _agrees(got, want, rtol=1e-12):
    """Every entry within ``rtol`` of the row's largest entry.

    An entry that nearly cancels carries the round-off of the row's large
    terms, so a per-entry tolerance would hold it to the luck of the draws.
    """
    return got.shape == want.shape and np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


_TABLE = tabulated_f(np.linspace(-2.0, 2.0, 21), np.linspace(-2.0, 2.0, 21) ** 3)
_CUSTOM_F = custom_nonlinearity(_TABLE, 4.0, 1.0, 1.0, 0.1, 0.0)


# On dense products every nonlinear F, a custom one included, is folded into
# one matrix L, which sums -lambda_j P_jk F_k in another order than the
# reference.  Generator seeds 13 and 14 drew m=383 states (the largest dense
# operator while FFT_MIN_MODES was 384) with nearly cancelling entries, on
# which a per-entry tolerance (rtol 1e-12, atol 1e-13) failed the folded sums
# of the cubic (1.02 times it), the power law (3.40 times it) and the custom
# table (2.55 times it); the row-relative gaps stay below 4e-14.
@pytest.mark.parametrize("seed", [12, 13, 14])
def test_acceleration_implementations_agree(op8, seed):
    rng = np.random.default_rng(seed)
    # Every specialised closure: each nonlinearity kind under each forcing
    # kind, on the dense products (m=8, and the largest dense periodic
    # operator just below FFT_MIN_MODES) and on the FFT pair (m=512).
    nls = [
        linear_nonlinearity(),
        cubic_nonlinearity(),
        power_law_nonlinearity(3.5),
        _CUSTOM_F,
    ]
    forcings = [
        zero_forcing(),
        affine_forcing(g1=0.3, g2=0.2),
        affine_forcing(g1=0.3, g2=0.2, constant=0.1, g0=0.2),
    ]
    assert 512 >= FFT_MIN_MODES
    ops = (
        op8,
        build_operator(DomainSpec(length=1.0, bc=PERIODIC_MEAN_ZERO), FFT_MIN_MODES - 1),
        build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 512),
    )
    for op in ops:
        a = 0.4 * rng.normal(size=op.modes) / np.arange(1, op.modes + 1)
        adot = 0.4 * rng.normal(size=op.modes) / np.arange(1, op.modes + 1)
        for nl in nls:
            for fs in forcings:
                ref = acceleration(State(a=a, adot=adot), op, nl, fs)
                closure = _closure_value(op, nl, fs, a, adot)
                assert _agrees(closure, ref), (op.modes, nl.kind, fs.kind)
                # one entry off by 1e-10 of the row's largest fails, even the smallest
                bad = closure.copy()
                bad[np.argmin(np.abs(ref))] += 1e-10 * np.max(np.abs(ref))
                assert not _agrees(bad, ref), (op.modes, nl.kind, fs.kind)


def _count_ffts(monkeypatch):
    """Patch numpy's pocketfft gufuncs, which FFT plans resolve when they are
    made, to count their calls into the returned dict."""
    from numpy.fft import _pocketfft_umath as pocketfft

    calls = {"rfft": 0, "irfft": 0}

    def counting(name, gufunc):
        def counted(*args, **kwargs):
            calls[name] += 1
            return gufunc(*args, **kwargs)

        return counted

    for name, attr in (("rfft", "rfft_n_even"), ("rfft", "rfft_n_odd"), ("irfft", "irfft")):
        monkeypatch.setattr(pocketfft, attr, counting(name, getattr(pocketfft, attr)))
    return calls


def _accelerate_three_times(op, nl, fs):
    """The loop's acceleration after three Galerkin calls at one drawn stage, and the reference value there."""
    rng = np.random.default_rng(5)
    a, adot = 0.4 * rng.normal(size=(2, op.modes)) / np.arange(1, op.modes + 1)
    return _closure_value(op, nl, fs, a, adot, calls=3), acceleration(State(a=a, adot=adot), op, nl, fs)


# On dense products every nonlinear F, a custom one included, is folded into
# L, so no Galerkin call runs an FFT; at the crossover each call runs one
# FFT each way, which shows that the count sees the stepping term's calls.
# The count is of the gufuncs an FFT plan calls, not of numpy.fft's wrappers.
@pytest.mark.parametrize("fs", [zero_forcing(), affine_forcing(g1=0.3, g2=0.2, constant=0.1, g0=0.2)], ids=["zero", "affine"])
@pytest.mark.parametrize("m", [8, FFT_MIN_MODES - 1])
def test_dense_custom_F_never_calls_an_fft(m, fs, monkeypatch):
    calls = _count_ffts(monkeypatch)
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), m)
    # ``acceleration``, the reference, samples and projects through the
    # batch maps, which are dense products here as well
    got, want = _accelerate_three_times(op, _CUSTOM_F, fs)
    assert calls == {"rfft": 0, "irfft": 0}
    assert _agrees(got, want)
    fft_op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), FFT_MIN_MODES)
    galerkin = _stepping_terms(fft_op, _CUSTOM_F, fs)[0]
    calls.update(rfft=0, irfft=0)  # building the term projects the constant forcing
    galerkin(np.zeros(fft_op.modes), np.empty(fft_op.modes))
    assert calls == {"rfft": 1, "irfft": 1}


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


def _final_state_errors(op, nl, fs, init, dts, ref):
    errs = []
    for dt in dts:
        traj = integrate(init, SolverConfig(T=1.0, dt=dt, sample_stride=int(round(1.0 / dt))), op, nl, fs)
        errs.append(max(np.max(np.abs(traj.a[-1] - ref.a[-1])), np.max(np.abs(traj.adot[-1] - ref.adot[-1]))))
    return errs


def test_rk4_order_on_the_folded_acceleration(op8):
    # Cubic F with velocity-dependent affine forcing at m=8 steps on the
    # folded matrix L and the affine coefficients G.  Against the oracle's own
    # RK4 at dt/8, the errors at dt and dt/2 must shrink by
    # (1 - 8^-4)/(2^-4 - 8^-4) = 16.25: a wrong entry in a stage matrix lowers
    # the order, and a wrong entry in L or G makes the run converge to another
    # system, so the errors stop shrinking.  The initial data are not
    # symmetric about the midpoint, so every mode moves and every nonzero
    # entry of L and G acts on the run.
    nl = cubic_nonlinearity()
    fs = affine_forcing(g1=0.3, g2=0.2, constant=0.5, g0=1.0)
    x = op8.nodes
    init = project_initial_data(4.0 * x * (1.0 - x) * (1.0 + x), 0.5 * np.sin(math.pi * x) + x - 0.3, op8).state
    dt = 2e-3  # dt * sqrt(lambda_max) = 0.05
    ref = reference_run(op8.domain, nl, fs, init.a, init.adot, 1.0, 8, dt / 8, sample_stride=2000)
    errs = _final_state_errors(op8, nl, fs, init, (dt, dt / 2), ref)
    assert errs[1] > 1e-9  # far above round-off
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


def test_custom_kind_follows_the_power_law_kind(op8):
    # a table of f = 2|r| with a node at 0 has F = |u| u on its range
    nl = custom_nonlinearity(tabulated_f([-50.0, 0.0, 50.0], [100.0, 0.0, 100.0]), 3.0, 1.0, 0.0, 1.0, 0.0)
    init = initial_state_from_modal([0.2], [], op8).state
    traj = integrate(init, SolverConfig(T=0.1, dt=1e-3), op8, nl, zero_forcing())
    power = integrate(init, SolverConfig(T=0.1, dt=1e-3), op8, power_law_nonlinearity(3.0), zero_forcing())
    assert np.allclose(traj.a, power.a, atol=1e-10)


@pytest.mark.parametrize(
    "bc,nl,fs",
    [
        (DIRICHLET, power_law_nonlinearity(4.0), zero_forcing()),
        (PERIODIC_MEAN_ZERO, cubic_nonlinearity(), affine_forcing(g1=0.3, g2=0.2, constant=0.5, g0=0.5)),
    ],
    ids=["dirichlet-power_law", "periodic-affine-cubic"],
)
def test_m512_trajectory_matches_dense_oracle(bc, nl, fs):
    # m=512 steps, projects its initial data and evaluates its forcing on
    # the FFT pair; the oracle runs its own full dense products.
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
