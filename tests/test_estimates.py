"""Energy bookkeeping, envelope and decay formulas, and the monitors."""

import dataclasses
import math

import numpy as np
import pytest

from wavegalerkin.estimates import (
    ALL_CHECKS,
    DecayParams,
    GronwallParams,
    MonitorTolerances,
    absorbing_radius,
    decay_bound,
    derive_decay,
    derive_gronwall,
    embedding_constant,
    energy_table,
    gronwall_envelope,
    identity_residuals,
    monitor,
    sample_table,
)
from wavegalerkin.nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    zero_forcing,
)
from wavegalerkin.solver import SolverConfig, State, initial_state_from_modal, integrate, project_initial_data
from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator


def _energy_record(state, op, nl, fs):
    """Energy split of one state: the single row of its energy table."""
    return energy_table(op, nl, fs, np.array([state.t]), state.a[None, :], state.adot[None, :]).row(0)


def _parabola_run(op, fs, T, dt, **cfg):
    u0 = op.nodes * (op.domain.length - op.nodes)
    init = project_initial_data(u0, np.zeros(op.grid_points), op)
    return integrate(init.state, SolverConfig(T=T, dt=dt, **cfg), op, cubic_nonlinearity(), fs)


def test_energy_record_components(op8):
    a = np.zeros(8)
    adot = np.zeros(8)
    a[0], adot[0], adot[1] = 0.6, 0.5, 1.2
    fs = affine_forcing(g1=0.2, g2=0.1, g0=0.5)
    rec = _energy_record(State(a=a, adot=adot), op8, cubic_nonlinearity(), fs)
    lam = op8.eigenvalues
    assert rec.kinetic == pytest.approx(0.5 * (0.25 / lam[0] + 1.44 / lam[1]), rel=1e-14)
    # Phi for the pure first mode with F(u) = u^3 is amp^4 * (3/2) / 4
    assert rec.potential == pytest.approx(0.6 ** 4 * 1.5 / 4.0, rel=1e-12)
    assert rec.energy == pytest.approx(rec.kinetic + rec.potential, rel=1e-14)
    assert rec.by_norm_sq == pytest.approx(0.36 / lam[0], rel=1e-14)
    g = 0.2 * a + 0.1 * adot / np.sqrt(lam)
    assert rec.forcing_power == pytest.approx(float(np.sum(g * adot / lam)), rel=1e-12)


def test_embedding_constant_values(op8):
    assert embedding_constant(op8, 4.0) == pytest.approx(1.0)
    op_long = build_operator(DomainSpec(length=4.0, bc=DIRICHLET, allow_poincare_violation=True), 4)
    assert embedding_constant(op_long, 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert embedding_constant(op_long, 2.0) == pytest.approx(1.0)


def test_derive_gronwall_constants(op8):
    rec = _energy_record(initial_state_from_modal([0.3], [], op8).state, op8, cubic_nonlinearity(), zero_forcing())
    gp0 = derive_gronwall(cubic_nonlinearity(), zero_forcing(), op8, rec)
    assert (gp0.C0, gp0.C1) == (0.0, 0.0)
    assert gp0.c_tilde == pytest.approx(4.0)
    assert gp0.E_init == pytest.approx(2.0 * rec.energy, rel=1e-14)

    gp1 = derive_gronwall(cubic_nonlinearity(), affine_forcing(g0=0.3), op8, rec)
    assert gp1.C0 == pytest.approx(2.0)
    assert gp1.C1 == pytest.approx(0.18)

    gp2 = derive_gronwall(cubic_nonlinearity(), affine_forcing(g1=1.0, g2=0.3, g0=0.3), op8, rec)
    assert gp2.C0 == pytest.approx(8.0)
    assert gp2.C1 == pytest.approx(8.18)


def test_envelope_closed_form_values():
    gp = GronwallParams(C0=2.0, C1=0.18, c_tilde=1.0, E_init=1.0)
    assert gronwall_envelope(gp, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert gronwall_envelope(gp, 1.0) == pytest.approx(7.9640711478344093, rel=1e-14)
    flat = GronwallParams(C0=0.0, C1=0.5, c_tilde=1.0, E_init=2.0)
    assert gronwall_envelope(flat, 3.0) == pytest.approx(3.5, rel=1e-15)
    t = np.linspace(0.0, 2.0, 9)
    env = gronwall_envelope(gp, t)
    assert env.shape == t.shape
    assert np.all(np.diff(env) > 0)
    assert np.all(env >= gp.E_init)
    with pytest.raises(ValueError):
        gronwall_envelope(gp, -0.5)


def test_gronwall_params_validation():
    with pytest.raises(ValueError):
        GronwallParams(C0=-1.0, C1=0.0, c_tilde=1.0, E_init=0.0)
    with pytest.raises(ValueError):
        GronwallParams(C0=0.0, C1=0.0, c_tilde=0.0, E_init=0.0)
    with pytest.raises(ValueError):
        GronwallParams(C0=math.inf, C1=0.0, c_tilde=1.0, E_init=0.0)


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(r=1.0, c=0.5, C=0.0)
    with pytest.raises(ValueError):
        DecayParams(r=2.0, c=0.0, C=0.0)
    with pytest.raises(ValueError):
        DecayParams(r=2.0, c=0.5, C=1.0, k=2.0, delta=0.3)
    ok = DecayParams(r=2.0, c=0.5, C=1.0, k=2.0, delta=0.25)
    assert ok.delta == 0.25


def test_derive_decay_defaults(op16):
    rec = _energy_record(initial_state_from_modal([0.1], [], op16).state, op16, cubic_nonlinearity(), zero_forcing())
    dp = derive_decay(cubic_nonlinearity(), zero_forcing(), op16, rec)
    assert dp.r == pytest.approx(2.0)
    assert dp.c == pytest.approx(0.5)
    assert dp.C == pytest.approx(2.0 * rec.energy, rel=1e-14)
    # small initial energy: the default lands on the c/2^(r-1) cap
    assert dp.delta == pytest.approx(0.25)
    with pytest.raises(ValueError):
        derive_decay(cubic_nonlinearity(), affine_forcing(g0=0.1), op16, rec)
    with pytest.raises(ValueError):
        derive_decay(linear_nonlinearity(), zero_forcing(), op16, rec)


def test_derive_decay_at_the_float_range_edges(op16):
    nl = power_law_nonlinearity(50.0)
    rec = _energy_record(initial_state_from_modal([0.1], [], op16).state, op16, nl, zero_forcing())
    # k^r C^r overflows: no delta > 0 meets the cap, so there is no bound
    huge = dataclasses.replace(rec, energy=1e30)
    assert derive_decay(nl, zero_forcing(), op16, huge) is None
    assert derive_decay(nl, zero_forcing(), op16, huge, delta=1e-300) is None
    # k^r C^r underflows to 0: the cap binds nothing and the c/2^(r-1) cap sets delta
    tiny = dataclasses.replace(rec, energy=1e-20)
    dp = derive_decay(nl, zero_forcing(), op16, tiny)
    assert dp.delta == pytest.approx(min(0.25, dp.c / 2.0 ** (dp.r - 1.0)), rel=1e-15)
    # a given delta must meet c/2^(r-1), with the same 1e-12 slack as the other cap
    dp = derive_decay(cubic_nonlinearity(), zero_forcing(), op16, rec)
    c_cap = dp.c / 2.0 ** (dp.r - 1.0)
    assert derive_decay(cubic_nonlinearity(), zero_forcing(), op16, rec, delta=c_cap * (1.0 + 1e-13)).delta > c_cap
    with pytest.raises(ValueError, match=r"c/2\^\(r-1\)"):
        derive_decay(cubic_nonlinearity(), zero_forcing(), op16, rec, delta=c_cap * (1.0 + 1e-11))


def test_decay_bound_closed_form_values():
    dp = DecayParams(r=2.0, c=0.5, C=1.0, k=2.0, delta=0.05)
    assert decay_bound(dp, 4.0, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert decay_bound(dp, 4.0, 1.0) == pytest.approx(8.762030524488976, rel=1e-14)
    assert decay_bound(dp, 4.0, 200.0) == pytest.approx(absorbing_radius(dp), rel=1e-12)
    assert absorbing_radius(dp) == pytest.approx(18.0, rel=1e-14)
    # approaches the radius monotonically from the initial value
    t = np.linspace(0.0, 30.0, 200)
    b = decay_bound(dp, 4.0, t)
    gap = np.abs(b - 18.0)
    assert np.all(np.diff(gap) < 0)
    with pytest.raises(ValueError):
        decay_bound(dp, -1.0, 1.0)
    with pytest.raises(ValueError):
        decay_bound(dp, 1.0, -1.0)


def test_decay_bound_degenerate_and_large_t():
    dp0 = DecayParams(r=2.0, c=0.5, C=0.0, k=2.0, delta=0.1)
    assert decay_bound(dp0, 0.0, 5.0) == 0.0
    huge = decay_bound(dp0, 3.0, 1e6)
    assert math.isfinite(huge)
    assert huge == pytest.approx(10.0, rel=1e-9)


def test_identity_residual_shrinks_at_third_order(op8):
    fs = affine_forcing(g1=0.1, g2=0.1, g0=0.1)
    res = []
    for dt in (2e-2, 1e-2):
        traj = _parabola_run(op8, fs, T=2.0, dt=dt)
        res.append(float(np.max(identity_residuals(traj.energy))))
    assert res[0] / res[1] >= 6.0
    assert identity_residuals(_parabola_run(op8, fs, T=2.0, dt=1e-2).energy)[0] == 0.0


def test_linear_energy_conserved_tightly(op8):
    init = initial_state_from_modal([1.0, 0.5], [0.0, 0.3], op8).state
    traj = integrate(init, SolverConfig(T=10.0, dt=1e-4, sample_stride=100), op8, linear_nonlinearity(), zero_forcing())
    e = traj.energy.energy
    assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]


def test_monitor_full_pass_on_conservative_run(op8):
    traj = _parabola_run(op8, zero_forcing(), T=2.0, dt=1e-3)
    rec = traj.energy.row(0)
    gp = derive_gronwall(traj.nl, traj.fs, op8, rec)
    dp = derive_decay(traj.nl, traj.fs, op8, rec)
    rep = monitor(traj, gp, dp)
    assert rep.passed and not rep.diverged
    assert [c.name for c in rep.checks] == list(ALL_CHECKS)
    assert all(c.samples == len(traj) for c in rep.checks)
    d = rep.to_dict()
    assert d["passed"] is True and len(d["checks"]) == 4


def test_monitor_flags_envelope_violation(op8):
    traj = _parabola_run(op8, zero_forcing(), T=1.0, dt=1e-3)
    rec = traj.energy.row(0)
    gp = derive_gronwall(traj.nl, traj.fs, op8, rec)
    squeezed = dataclasses.replace(gp, E_init=0.5 * rec.energy)
    rep = monitor(traj, squeezed, None, checks=("gronwall",))
    assert not rep.passed
    check = rep.checks[0]
    assert check.name == "gronwall" and not check.passed
    assert check.worst_violation > 0.0
    assert check.t_worst >= 0.0


def test_monitor_single_sample_is_vacuous(op8):
    traj = _parabola_run(op8, zero_forcing(), T=0.0, dt=1e-3)
    rec = traj.energy.row(0)
    gp = derive_gronwall(traj.nl, traj.fs, op8, rec)
    dp = derive_decay(traj.nl, traj.fs, op8, rec)
    rep = monitor(traj, gp, dp)
    assert rep.passed
    assert all(c.samples == 1 for c in rep.checks)


def test_monitor_reports_divergence(op8):
    init = initial_state_from_modal([50.0], [], op8).state
    cfg = SolverConfig(T=1.0, dt=1e-2, blowup_ceiling=1e6)
    traj = integrate(init, cfg, op8, cubic_nonlinearity(), zero_forcing())
    rec = traj.energy.row(0)
    gp = derive_gronwall(traj.nl, traj.fs, op8, rec)
    rep = monitor(traj, gp, None)
    assert rep.diverged and not rep.passed
    assert rep.diverged_at == traj.diverged_at


def test_monitor_check_selection_and_forced_skips(op8):
    fs = affine_forcing(g1=0.1, g0=0.1)
    traj = _parabola_run(op8, fs, T=1.0, dt=1e-3)
    gp = derive_gronwall(traj.nl, traj.fs, op8, traj.energy.row(0))
    rep = monitor(traj, gp, None, MonitorTolerances(), checks=("conservation", "gronwall"))
    # conservation applies only to unforced runs, so a single check remains
    assert [c.name for c in rep.checks] == ["gronwall"]


def test_sample_table_columns(op8):
    fs = affine_forcing(g1=0.1, g0=0.1)
    traj = _parabola_run(op8, fs, T=1.0, dt=1e-2)
    gp = derive_gronwall(traj.nl, traj.fs, op8, traj.energy.row(0))
    cols = sample_table(traj, gp, None)
    assert cols["decay_bound"] is None
    assert np.allclose(cols["gronwall_envelope"], gronwall_envelope(gp, traj.times), rtol=1e-14)
    assert cols["identity_residual"][0] == 0.0

    cons = _parabola_run(op8, zero_forcing(), T=1.0, dt=1e-2)
    rec = cons.energy.row(0)
    dp = derive_decay(cons.nl, cons.fs, op8, rec)
    cols2 = sample_table(cons, derive_gronwall(cons.nl, cons.fs, op8, rec), dp)
    assert cols2["decay_bound"] is not None
    assert cols2["decay_bound"][0] == pytest.approx(cons.energy.by_norm_sq[0], abs=1e-12)
