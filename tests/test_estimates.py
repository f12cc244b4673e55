"""Energy bookkeeping, envelope and decay formulas, and the monitors."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from wavegalerkin.estimates import (
    BLOCK_ROWS,
    CONSERVATION_REL,
    IDENTITY_SCALE,
    DecayParams,
    GronwallParams,
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
from wavegalerkin.nonlinearity import ForcingSpec, NonlinearitySpec, TabulatedF, forcing_modal_batch
from wavegalerkin.solver import SolverConfig, State, fit_modal, integrate, project_initial_data
from wavegalerkin.spectral import DIRICHLET, FFT_MIN_MODES, PERIODIC_MEAN_ZERO, DomainSpec, build_operator, modes_to_grid


def _energy_record(state, op, nl, fs):
    """Energy split of one state: its energy table of one row."""
    return energy_table(op, nl, fs, np.array([state.t]), state.a[None, :], state.adot[None, :])


def _initial_energy(state, op, nl, fs):
    return float(_energy_record(state, op, nl, fs).energy[0])


def _parabola_run(op, fs, T, dt, **cfg):
    u0 = op.nodes * (op.domain.length - op.nodes)
    init = project_initial_data(u0, np.zeros(op.grid_points), op)
    return integrate(init.state, SolverConfig(T=T, dt=dt, **cfg), op, NonlinearitySpec(p=4), fs)


def test_energy_record_components(op8):
    a = np.zeros(8)
    adot = np.zeros(8)
    a[0], adot[0], adot[1] = 0.6, 0.5, 1.2
    fs = ForcingSpec(g1=0.2, g2=0.1, g0=0.5)
    rec = _energy_record(State(a=a, adot=adot), op8, NonlinearitySpec(p=4), fs)
    assert len(rec) == 1
    lam = op8.eigenvalues
    assert rec.kinetic[0] == pytest.approx(0.5 * (0.25 / lam[0] + 1.44 / lam[1]), rel=1e-14)
    # Phi for the pure first mode with F(u) = u^3 is amp^4 * (3/2) / 4
    assert rec.potential[0] == pytest.approx(0.6 ** 4 * 1.5 / 4.0, rel=1e-12)
    assert rec.energy[0] == pytest.approx(rec.kinetic[0] + rec.potential[0], rel=1e-14)
    assert rec.by_norm_sq[0] == pytest.approx(0.36 / lam[0], rel=1e-14)
    g = 0.2 * a + 0.1 * adot / np.sqrt(lam)
    assert rec.forcing_power[0] == pytest.approx(float(np.sum(g * adot / lam)), rel=1e-12)


def test_embedding_constant_values(op8):
    assert embedding_constant(op8, 4.0) == pytest.approx(1.0)
    op_long = build_operator(DomainSpec(length=4.0, bc=DIRICHLET), 4)
    assert embedding_constant(op_long, 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert embedding_constant(op_long, 2.0) == pytest.approx(1.0)


def test_derive_gronwall_constants(op8):
    e0 = _initial_energy(State(a=fit_modal([0.3], op8)[0], adot=np.zeros(op8.modes)), op8, NonlinearitySpec(p=4), ForcingSpec())
    gp0 = derive_gronwall(NonlinearitySpec(p=4), ForcingSpec(), op8, e0)
    assert (gp0.C0, gp0.C1) == (0.0, 0.0)
    assert gp0.c_tilde == pytest.approx(4.0)
    assert gp0.E_init == pytest.approx(2.0 * e0, rel=1e-14)

    # g with all-zero coefficients is unforced whatever g0 states
    gp_zero = derive_gronwall(NonlinearitySpec(p=4), ForcingSpec(g0=0.3), op8, e0)
    assert (gp_zero.C0, gp_zero.C1) == (0.0, 0.0)

    gp1 = derive_gronwall(NonlinearitySpec(p=4), ForcingSpec(g1=0.1, g0=0.3), op8, e0)
    assert gp1.C0 == pytest.approx(2.0)
    assert gp1.C1 == pytest.approx(0.26)

    gp2 = derive_gronwall(NonlinearitySpec(p=4), ForcingSpec(g1=1.0, g2=0.3, g0=0.3), op8, e0)
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
    # delta meets (k-1)/(k^r C^r) but the absorbing radius 1/delta - k*C is
    # negative: the bound would fall below ||By||^2 >= 0
    with pytest.raises(ValueError, match="absorbing radius"):
        DecayParams(r=2.0, c=0.5, C=7.9366e-4, k=1e6, delta=0.25)
    ok = DecayParams(r=2.0, c=0.5, C=1.0, k=2.0, delta=0.25)
    assert ok.delta == 0.25
    # delta^(-1/(r-1)) = 1e-4^(-100) overflows: the radius is unbounded
    assert absorbing_radius(DecayParams(r=1.01, c=0.5, C=1.0, k=2.0, delta=1e-4)) == math.inf


def test_derive_decay_defaults(op16):
    e0 = _initial_energy(State(a=fit_modal([0.1], op16)[0], adot=np.zeros(op16.modes)), op16, NonlinearitySpec(p=4), ForcingSpec())
    dp = derive_decay(NonlinearitySpec(p=4), ForcingSpec(), op16, e0)
    assert dp.r == pytest.approx(2.0)
    assert dp.c == pytest.approx(0.5)
    assert dp.C == pytest.approx(2.0 * e0, rel=1e-14)
    # small initial energy: the default lands on the c/2^(r-1) cap
    assert dp.delta == pytest.approx(0.25)
    # no decay bound exists for forced runs or for p <= 2; g with all-zero
    # coefficients is unforced whatever g0 states
    assert derive_decay(NonlinearitySpec(p=4), ForcingSpec(g0=0.1), op16, e0) == dp
    for fs in (ForcingSpec(g1=0.1, g0=0.1), ForcingSpec(g2=0.1), ForcingSpec(constant=0.1, g0=0.1)):
        assert derive_decay(NonlinearitySpec(p=4), fs, op16, e0) is None
    assert derive_decay(NonlinearitySpec(p=2), ForcingSpec(), op16, e0) is None


def test_derive_decay_at_the_float_range_edges(op16):
    nl = NonlinearitySpec(p=50.0)
    # k^r C^r overflows: no delta > 0 meets the cap, so there is no bound
    assert derive_decay(nl, ForcingSpec(), op16, 1e30) is None
    # k^r C^r underflows to 0: the cap binds nothing and the c/2^(r-1) cap sets delta
    dp = derive_decay(nl, ForcingSpec(), op16, 1e-20)
    assert dp.delta == pytest.approx(min(0.25, dp.c / 2.0 ** (dp.r - 1.0)), rel=1e-15)


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
    fs = ForcingSpec(g1=0.1, g2=0.1, g0=0.1)
    res = []
    for dt in (2e-2, 1e-2):
        traj = _parabola_run(op8, fs, T=2.0, dt=dt)
        res.append(float(np.max(identity_residuals(traj.energy))))
    assert res[0] / res[1] >= 6.0
    assert identity_residuals(_parabola_run(op8, fs, T=2.0, dt=1e-2).energy)[0] == 0.0


def test_linear_energy_conserved_tightly(op8):
    init = State(a=fit_modal([1.0, 0.5], op8)[0], adot=fit_modal([0.0, 0.3], op8)[0])
    traj = integrate(init, SolverConfig(T=10.0, dt=1e-4, sample_stride=100), op8, NonlinearitySpec(p=2), ForcingSpec())
    e = traj.energy.energy
    assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]


def test_monitor_full_pass_covers_every_check(op8):
    # Conservation and decay apply to unforced runs, the envelope to forced
    # ones (with g = 0 it is the constant 2E(0), which conservation checks):
    # the two runs between them exercise every check, each at its fixed
    # tolerance.
    names = []
    for fs in (ForcingSpec(), ForcingSpec(g1=0.1, g2=0.1, g0=0.1)):
        traj = _parabola_run(op8, fs, T=2.0, dt=1e-3)
        e0 = float(traj.energy.energy[0])
        gp = derive_gronwall(traj.nl, traj.fs, op8, e0)
        dp = derive_decay(traj.nl, traj.fs, op8, e0)
        rep = monitor(traj, sample_table(traj, gp, dp))
        assert rep.passed and not rep.diverged
        assert all(c.samples == len(traj) for c in rep.checks)
        d = rep.to_dict()
        assert d["passed"] is True and len(d["checks"]) == len(rep.checks)
        names.append([c.name for c in rep.checks])
        by_name = {c.name: c for c in rep.checks}
        assert by_name["energy_identity"].tolerance == IDENTITY_SCALE * (1.0 + abs(e0))
        if fs.unforced:
            assert by_name["conservation"].tolerance == CONSERVATION_REL * abs(e0)
    assert names == [["energy_identity", "conservation", "decay"], ["energy_identity", "gronwall"]]


def test_monitor_flags_envelope_violation(op8):
    traj = _parabola_run(op8, ForcingSpec(g1=0.1, g0=0.1), T=1.0, dt=1e-3)
    e0 = float(traj.energy.energy[0])
    gp = derive_gronwall(traj.nl, traj.fs, op8, e0)
    squeezed = dataclasses.replace(gp, E_init=0.5 * e0)
    rep = monitor(traj, sample_table(traj, squeezed, None))
    assert not rep.passed
    check = {c.name: c for c in rep.checks}["gronwall"]
    assert not check.passed
    assert check.worst_violation > 0.0
    assert check.t_worst >= 0.0


def test_gronwall_compares_twice_the_energy(op8):
    # The envelope starts at E_init = 2E(0), so it bounds 2E.  A table whose
    # 2E crosses it by 1e-6 relative at one sample fails; E itself stays
    # below it by about half.
    traj = _parabola_run(op8, ForcingSpec(g1=0.1, g0=0.1), T=1.0, dt=1e-2)
    gp = derive_gronwall(traj.nl, traj.fs, op8, float(traj.energy.energy[0]))
    env = gronwall_envelope(gp, traj.times)
    i = len(traj) // 2

    def check(factor):
        e = 0.5 * env
        e[i] *= factor
        table = dataclasses.replace(traj, energy=dataclasses.replace(traj.energy, energy=e))
        return {c.name: c for c in monitor(table, sample_table(table, gp, None)).checks}["gronwall"]

    over = check(1.0 + 1e-6)
    assert not over.passed
    assert over.t_worst == traj.times[i]
    assert over.worst_violation == pytest.approx(1e-6 * env[i], rel=1e-6)
    assert check(1.0).passed


def test_overflowed_envelope_bounds_every_finite_energy_and_nan_still_fails(op8):
    # Past C0 t ~ 709 the envelope is inf, silently: 2E <= inf holds, while a
    # NaN energy is still an unbounded violation.
    traj = _parabola_run(op8, ForcingSpec(g1=0.1, g0=0.1), T=1.0, dt=1e-2)
    gp = dataclasses.replace(derive_gronwall(traj.nl, traj.fs, op8, float(traj.energy.energy[0])), C0=2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = gronwall_envelope(gp, traj.times)
        assert env[0] == gp.E_init and np.isinf(env[-1])
        gronwall = {c.name: c for c in monitor(traj, sample_table(traj, gp, None)).checks}["gronwall"]
    assert gronwall.passed and math.isfinite(gronwall.worst_violation)
    e = traj.energy.energy.copy()
    e[len(e) // 2] = np.nan
    table = dataclasses.replace(traj, energy=dataclasses.replace(traj.energy, energy=e))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gronwall = {c.name: c for c in monitor(table, sample_table(table, gp, None)).checks}["gronwall"]
    assert not gronwall.passed and gronwall.worst_violation == math.inf
    assert gronwall.t_worst == traj.times[len(e) // 2]


def test_overflowed_envelope_without_initial_energy_or_C1_is_never_nan():
    t = np.array([0.0, 1.0, 10.0])
    for e_init, c1 in ((0.0, 0.5), (1.0, 0.0), (0.0, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = gronwall_envelope(GronwallParams(C0=100.0, C1=c1, c_tilde=1.0, E_init=e_init), t)
        assert not np.any(np.isnan(env)) and env[0] == e_init
        assert env[-1] == (math.inf if e_init or c1 else 0.0)


def test_monitor_single_sample_is_vacuous(op8):
    for fs in (ForcingSpec(), ForcingSpec(g1=0.1, g0=0.1)):
        traj = _parabola_run(op8, fs, T=0.0, dt=1e-3)
        e0 = float(traj.energy.energy[0])
        gp = derive_gronwall(traj.nl, traj.fs, op8, e0)
        dp = derive_decay(traj.nl, traj.fs, op8, e0)
        rep = monitor(traj, sample_table(traj, gp, dp))
        assert rep.passed
        assert len(rep.checks) == (3 if fs.unforced else 2)
        assert all(c.samples == 1 for c in rep.checks)


def test_monitor_reports_divergence(op8):
    init = State(a=fit_modal([50.0], op8)[0], adot=np.zeros(op8.modes))
    cfg = SolverConfig(T=1.0, dt=1e-2, blowup_ceiling=1e6)
    traj = integrate(init, cfg, op8, NonlinearitySpec(p=4), ForcingSpec())
    gp = derive_gronwall(traj.nl, traj.fs, op8, float(traj.energy.energy[0]))
    rep = monitor(traj, sample_table(traj, gp, None))
    assert rep.diverged and not rep.passed
    assert rep.diverged_at == traj.diverged_at


def test_monitor_check_selection_and_forced_skips(op8):
    # The forcing, not the columns, selects the checks: a forced run handed
    # a decay column still skips conservation and decay.
    traj = _parabola_run(op8, ForcingSpec(g1=0.1, g0=0.1), T=1.0, dt=1e-3)
    e0 = float(traj.energy.energy[0])
    gp = derive_gronwall(traj.nl, traj.fs, op8, e0)
    dp = derive_decay(traj.nl, ForcingSpec(), op8, e0)
    bounds = sample_table(traj, gp, dp)
    assert bounds["decay_bound"] is not None
    rep = monitor(traj, bounds)
    assert [c.name for c in rep.checks] == ["energy_identity", "gronwall"]


def test_sample_table_columns(op8):
    fs = ForcingSpec(g1=0.1, g0=0.1)
    traj = _parabola_run(op8, fs, T=1.0, dt=1e-2)
    gp = derive_gronwall(traj.nl, traj.fs, op8, float(traj.energy.energy[0]))
    cols = sample_table(traj, gp, None)
    assert cols["decay_bound"] is None
    assert np.allclose(cols["gronwall_envelope"], gronwall_envelope(gp, traj.times), rtol=1e-14)
    assert cols["identity_residual"][0] == 0.0

    cons = _parabola_run(op8, ForcingSpec(), T=1.0, dt=1e-2)
    e0 = float(cons.energy.energy[0])
    dp = derive_decay(cons.nl, cons.fs, op8, e0)
    cols2 = sample_table(cons, derive_gronwall(cons.nl, cons.fs, op8, e0), dp)
    assert cols2["decay_bound"] is not None
    assert cols2["decay_bound"][0] == pytest.approx(cons.energy.by_norm_sq[0], abs=1e-12)


# energy_table as one set of formulas over the whole history, as it was
# before it filled its columns a block of rows at a time.
def _one_shot_energy_table(op, nl, fs, a_hist, adot_hist):
    lam = op.eigenvalues
    u_min = u_max = None
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * np.sum(adot_hist * adot_hist / lam[None, :], axis=1)
        by_norm_sq = np.sum(a_hist * a_hist / lam[None, :], axis=1)
        u = modes_to_grid(a_hist, op)
        if nl.table is not None:
            potential = nl.table.Phi(u) @ op.weights
            u_min, u_max = u.min(axis=1), u.max(axis=1)
        else:
            potential = (np.abs(u) ** nl.p @ op.weights) / nl.p
        g = forcing_modal_batch(fs, op, a_hist, adot_hist)
        forcing_power = np.sum(g * adot_hist / lam[None, :], axis=1)
        energy = kinetic + potential
    return {
        "kinetic": kinetic,
        "potential": potential,
        "energy": energy,
        "by_norm_sq": by_norm_sq,
        "forcing_power": forcing_power,
        "u_min": u_min,
        "u_max": u_max,
    }


_R = np.linspace(-40.0, 40.0, 801)
BLOCKED_KINDS = {
    "cubic": (DIRICHLET, 16, NonlinearitySpec(p=4)),
    "power_law": (PERIODIC_MEAN_ZERO, 32, NonlinearitySpec(p=3.5)),
    "custom_table": (DIRICHLET, 24, NonlinearitySpec(4.0, 1.0, 1.0, 1.0, 0.0, table=TabulatedF(_R, 3.0 * _R * _R))),
    "fft": (DIRICHLET, FFT_MIN_MODES, NonlinearitySpec(p=4)),
}


@pytest.mark.parametrize("forcing", ["zero", "damped_affine"])
@pytest.mark.parametrize("kind", list(BLOCKED_KINDS))
@pytest.mark.parametrize("samples", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
def test_blocked_energy_table_has_the_bits_of_the_one_shot_formulas(kind, forcing, samples):
    bc, m, nl = BLOCKED_KINDS[kind]
    op = build_operator(DomainSpec(length=1.0, bc=bc), m)
    fs = ForcingSpec() if forcing == "zero" else ForcingSpec(g1=0.3, g2=0.2, constant=0.5, g0=0.6)
    rng = np.random.default_rng(samples)
    decay = 1.0 / np.arange(1, m + 1)
    a_hist = rng.standard_normal((samples, m)) * decay
    adot_hist = rng.standard_normal((samples, m)) * decay * np.sqrt(op.eigenvalues)
    t = np.arange(samples) * 1e-3
    got = energy_table(op, nl, fs, t, a_hist, adot_hist)
    want = _one_shot_energy_table(op, nl, fs, a_hist, adot_hist)
    assert np.array_equal(got.t, t)
    for name, col in want.items():
        if col is None:
            assert getattr(got, name) is None, name
        else:
            assert np.array_equal(getattr(got, name), col), name
    assert (got.u_min is not None) == (kind == "custom_table")
