"""Desk-scale acceptance checks A1-A8, one pass/fail line per criterion.

Each test exercises one end-to-end guarantee of the package: energy
conservation, envelope domination, Galerkin convergence, decay into the
absorbing ball, agreement with the closed-form linear solution, closed-form
bound formulas vs dense integration, condition falsification, and potential
consistency.  Expected values come from independent closed forms, never
from the implementation under test.
"""

import math

import numpy as np

from wavegalerkin.estimates import (
    DecayParams,
    GronwallParams,
    absorbing_radius,
    decay_bound,
    derive_decay,
    derive_gronwall,
    gronwall_envelope,
)
from wavegalerkin.nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
    custom_nonlinearity,
    F_on_grid,
    linear_nonlinearity,
    potential_batch,
    power_law_nonlinearity,
    tabulated_f,
    verify_conditions,
    verify_g,
    zero_forcing,
)
from wavegalerkin.oracle import (
    BERNOULLI,
    GRONWALL_LINEAR,
    linear_exact,
    max_H_error,
    reference_run,
    scalar_comparison,
)
from wavegalerkin.solver import SolverConfig, initial_state_from_modal, integrate, project_initial_data
from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator, grid_to_modes, modes_to_grid

DOM = DomainSpec(length=1.0, bc=DIRICHLET)


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _parabola_state(op):
    xi = op.nodes
    u0 = xi * (op.domain.length - xi)
    return project_initial_data(u0, np.zeros_like(u0), op).state


def test_A1_energy_conservation():
    op = build_operator(DOM, 16)
    nl = cubic_nonlinearity()
    fs = zero_forcing()
    state = _parabola_state(op)
    drifts = []
    for dt in (1e-3, 5e-4):
        traj = integrate(state, SolverConfig(T=10.0, dt=dt, sample_stride=10), op, nl, fs)
        assert not traj.diverged
        E = traj.energy.energy
        drifts.append(float(np.max(np.abs(E - E[0])) / E[0]))
    ok = drifts[0] <= 1e-6 and drifts[0] / drifts[1] >= 8.0
    detail = f"max drift {drifts[0]:.3e} (tol 1e-6), halving ratio {drifts[0] / drifts[1]:.2f} (need >= 8)"
    _line("A1", ok, detail)
    assert ok, detail


def test_A2_gronwall_envelope_domination():
    op = build_operator(DOM, 16)
    nl = cubic_nonlinearity()
    fs = affine_forcing(g1=0.1, g2=0.1, constant=0.0, g0=0.1)
    state = _parabola_state(op)
    traj = integrate(state, SolverConfig(T=5.0, dt=1e-3, sample_stride=10), op, nl, fs)
    assert not traj.diverged
    gp = derive_gronwall(nl, fs, op, traj.energy.row(0))
    env = gronwall_envelope(gp, traj.times)
    E = traj.energy.energy
    violations = int(np.sum(E > env * (1.0 + 1e-9)))
    margin = float(np.max(E - env))
    ok = violations == 0
    detail = f"violations {violations}/{len(E)}, worst E - envelope = {margin:.3e}"
    _line("A2", ok, detail)
    assert ok, detail


def test_A3_galerkin_convergence():
    nl = cubic_nonlinearity()
    fs = zero_forcing()
    k = np.arange(1, 9)
    x0 = 0.3 * np.where(k % 2 == 1, 4.0 * math.sqrt(2.0) / (k * math.pi) ** 3, 0.0)
    ref = reference_run(DOM, nl, fs, x0, np.zeros(8), 1.0, 64, 1e-4, sample_stride=10)
    assert not ref.diverged
    errs = {}
    for m in (8, 16, 32):
        op = build_operator(DOM, m)
        init = initial_state_from_modal(x0, [], op)
        traj = integrate(init.state, SolverConfig(T=1.0, dt=1e-3), op, nl, fs)
        assert not traj.diverged
        errs[m] = max_H_error(traj, ref)
    ok = errs[8] > errs[16] > errs[32] and errs[32] <= 1e-6
    detail = f"err(8)={errs[8]:.3e} > err(16)={errs[16]:.3e} > err(32)={errs[32]:.3e}, err(32) tol 1e-6"
    _line("A3", ok, detail)
    assert ok, detail


def test_A4_decay_and_absorbing_ball():
    op = build_operator(DOM, 16)
    nl = cubic_nonlinearity()
    fs = zero_forcing()
    state = _parabola_state(op)
    traj = integrate(state, SolverConfig(T=50.0, dt=1e-3, sample_stride=10), op, nl, fs)
    assert not traj.diverged
    row0 = traj.energy.row(0)
    dp = derive_decay(nl, fs, op, row0)
    times = traj.times
    by = traj.energy.by_norm_sq
    bound = decay_bound(dp, row0.by_norm_sq, times)
    below = bool(np.all(by <= bound + 1e-12 * (1.0 + np.abs(bound))))
    radius = absorbing_radius(dp)
    tail_sup = float(np.max(by[times >= 40.0 - 1e-12]))
    ok = below and tail_sup <= radius + 1e-9
    detail = (
        f"worst ||By||^2 - bound = {float(np.max(by - bound)):.3e}, "
        f"tail sup {tail_sup:.3e} vs radius {radius:.6g}"
    )
    _line("A4", ok, detail)
    assert ok, detail


def test_A5_linear_oracle():
    op = build_operator(DOM, 8)
    nl = linear_nonlinearity()
    fs = zero_forcing()
    init = initial_state_from_modal([1.0], [], op)
    lam1 = float(op.eigenvalues[0])
    errs = []
    for dt in (1e-3, 5e-4):
        traj = integrate(init.state, SolverConfig(T=10.0, dt=dt, sample_stride=10), op, nl, fs)
        assert not traj.diverged
        exact_a, _ = linear_exact(1, lam1, 1.0, 0.0, traj.times)
        errs.append(float(np.max(np.abs(traj.a[:, 0] - exact_a))))
    ratio = errs[0] / errs[1]
    ok = errs[0] <= 1e-7 and 14.0 <= ratio <= 18.0
    detail = f"max error {errs[0]:.3e} (tol 1e-7), halving ratio {ratio:.2f} (need [14, 18])"
    _line("A5", ok, detail)
    assert ok, detail


def test_A6_closed_forms_match_dense_integration():
    ts = np.linspace(0.0, 1.0, 11)
    rng = np.random.default_rng(42)

    # Each family is integrated in one broadcast call: column j of the dense
    # result is parameter set j.
    sets_g = []
    for i in range(100):
        C0 = 0.0 if i < 5 else float(rng.uniform(0.0, 3.0))
        C1 = float(rng.uniform(0.0, 2.0))
        z0 = float(rng.uniform(0.1, 5.0))
        sets_g.append((C0, C1, z0))
    C0, C1, z0 = (np.array(col) for col in zip(*sets_g))
    dense_g = scalar_comparison(GRONWALL_LINEAR, {"C0": C0, "C1": C1, "z0": z0}, ts)
    worst_g = 0.0
    for j, (c0, c1, z) in enumerate(sets_g):
        closed = gronwall_envelope(GronwallParams(C0=c0, C1=c1, c_tilde=1.0, E_init=z), ts)
        worst_g = max(worst_g, float(np.max(np.abs(closed - dense_g[:, j]) / np.abs(dense_g[:, j]))))

    sets_b = []
    for i in range(100):
        r = float(rng.uniform(1.5, 3.0))
        if i < 50:
            C = 0.0
            delta = float(rng.uniform(0.01, 0.5))
            by0 = float(rng.uniform(0.1, 5.0))
        else:
            C = float(rng.uniform(0.1, 1.0))
            cap = 1.0 / (2.0 ** r * C ** r)
            delta = 0.5 * min(cap, 0.5) * float(rng.uniform(0.3, 0.9))
            by0 = float(rng.uniform(0.1, 5.0))
        sets_b.append((r, C, delta, by0))
    r, C, delta, by0 = (np.array(col) for col in zip(*sets_b))
    dense_b = scalar_comparison(BERNOULLI, {"delta": delta, "r": r, "w0": by0 + 2.0 * C}, ts) - 2.0 * C
    worst_b = 0.0
    for j, (rj, cj, dj, bj) in enumerate(sets_b):
        closed = decay_bound(DecayParams(r=rj, c=1.0, C=cj, k=2.0, delta=dj), bj, ts)
        worst_b = max(worst_b, float(np.max(np.abs(closed - dense_b[:, j]) / np.abs(dense_b[:, j]))))

    ok = worst_g <= 1e-7 and worst_b <= 1e-7
    detail = f"worst relative gap: envelope {worst_g:.3e}, decay {worst_b:.3e} (tol 1e-7, 100 sets each)"
    _line("A6", ok, detail)
    assert ok, detail


def test_A7_condition_verifiers():
    op = build_operator(DOM, 16)

    good = verify_conditions(power_law_nonlinearity(4.0), op, 10000, seed=7)
    ok_good = good.passed and [c.name for c in good.checks] == ["monotonicity", "growth", "coercivity"]

    negated = custom_nonlinearity(
        f=tabulated_f([-10.0, 10.0], [-1.0, -1.0]), p=3.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0
    )
    bad = verify_conditions(negated, op, 2000, seed=7)
    mono = {c.name: c for c in bad.checks}["monotonicity"]
    ok_neg = (not bad.passed) and (not mono.passed) and mono.witness is not None

    understated = affine_forcing(g1=0.0, g2=0.0, constant=0.3, g0=0.2)
    g_rep = verify_g(understated, op, 200, seed=3)
    origin = {c.name: c for c in g_rep.checks}["g0_dominates_origin"]
    ok_g = (not g_rep.passed) and (not origin.passed)

    ok = ok_good and ok_neg and ok_g
    detail = (
        f"power-law p=4 on 10^4 pairs: {'pass' if ok_good else 'FAIL'}; "
        f"F(u)=-u falsified: {'yes' if ok_neg else 'NO'}; "
        f"understated g0 falsified: {'yes' if ok_g else 'NO'}"
    )
    _line("A7", ok, detail)
    assert ok, detail


def test_A8_potential_consistency():
    op = build_operator(DOM, 16)
    nl = cubic_nonlinearity()
    rng = np.random.default_rng(11)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(op.modes)
        z = rng.standard_normal(op.modes)
        x /= np.linalg.norm(x)
        z /= np.linalg.norm(z)
        lhs = float(grid_to_modes(F_on_grid(nl, modes_to_grid(x, op)), op) @ z)
        vals = potential_batch(np.stack([x + eps * z, x - eps * z]), op, nl)
        rhs = float(vals[0] - vals[1]) / (2.0 * eps)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-6
    detail = f"worst |<F(x),z> - dPhi| = {worst:.3e} over 100 normalized pairs (tol 1e-6)"
    _line("A8", ok, detail)
    assert ok, detail
