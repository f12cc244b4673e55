"""Nonlinearity primitives, potentials, forcing terms, and the verifiers."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavegalerkin import cli
from wavegalerkin.nonlinearity import (
    ZERO,
    ForcingSpec,
    NonlinearitySpec,
    affine_forcing,
    constant_modal,
    cubic_nonlinearity,
    custom_lipschitz_forcing,
    custom_nonlinearity,
    F_on_grid,
    forcing_modal_batch,
    linear_nonlinearity,
    potential_batch,
    power_law_nonlinearity,
    tabulated_f,
    verify_conditions,
    verify_g,
    zero_forcing,
)
from wavegalerkin.estimates import energy_table
from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator, grid_to_modes, modes_to_grid


def _projected_F(nl, x, op):
    """Galerkin projection of F composed with the field of coefficients ``x``."""
    return grid_to_modes(F_on_grid(nl, modes_to_grid(x, op)), op)


def test_primitive_closed_forms():
    r = np.array([2.0, -2.0])
    assert np.allclose(F_on_grid(linear_nonlinearity(), r), [2.0, -2.0])
    assert np.allclose(F_on_grid(cubic_nonlinearity(), r), [8.0, -8.0])
    assert np.allclose(F_on_grid(power_law_nonlinearity(3.0), r), [4.0, -4.0])


def test_primitive_is_integral_of_f():
    integrands = (
        (cubic_nonlinearity(), lambda s: 3.0 * s * s),
        (power_law_nonlinearity(3.5), lambda s: 2.5 * abs(s) ** 1.5),
    )
    for nl, f in integrands:
        for r in (-2.3, -0.4, 0.7, 3.1):
            ref, _ = quad(f, 0.0, r, epsabs=1e-13)
            assert abs(float(F_on_grid(nl, np.float64(r))) - ref) <= 1e-10 * (1.0 + abs(r) ** (nl.p - 1.0))


def test_custom_primitive_from_quadrature():
    nl = custom_nonlinearity(f=np.cos, p=3.0, a0=2.0, a1=1.0, b0=0.5, b1=0.0)
    # primitive of cos is sin
    assert float(F_on_grid(nl, np.float64(math.pi / 2.0))) == pytest.approx(1.0, abs=1e-10)
    u = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(F_on_grid(nl, u), np.sin(u), atol=1e-12)
    nl_with_F = custom_nonlinearity(f=np.cos, p=3.0, a0=2.0, a1=1.0, b0=0.5, b1=0.0, F=np.sin)
    assert float(F_on_grid(nl_with_F, np.float64(0.3))) == pytest.approx(math.sin(0.3), rel=1e-14)


def test_cubic_F_first_mode_projections(op8):
    # (sqrt(2) sin(pi xi))^3 pairs to 3/2 on mode 1 and -1/2 on mode 3
    expect = np.zeros(8)
    expect[0], expect[2] = 1.5, -0.5
    assert np.allclose(_projected_F(cubic_nonlinearity(), np.eye(8)[0], op8), expect, atol=1e-12)


def test_potential_closed_forms(op8):
    e1 = np.eye(8)[:1]
    assert potential_batch(e1, op8, linear_nonlinearity())[0] == pytest.approx(0.5, rel=1e-13)
    assert potential_batch(e1, op8, cubic_nonlinearity())[0] == pytest.approx(0.375, rel=1e-12)
    assert potential_batch(np.zeros((1, 8)), op8, cubic_nonlinearity())[0] == 0.0


def test_potential_quadrature_matches_closed_form(op16):
    # a custom f = 3u^2 goes through the quadrature rule; the cubic kind
    # has the same potential in closed form
    rng = np.random.default_rng(2)
    c = rng.uniform(-0.5, 0.5, size=(5, 16))
    closed = potential_batch(c, op16, cubic_nonlinearity())
    custom = custom_nonlinearity(f=lambda u: 3.0 * u * u, p=4.0, a0=1.0, a1=0.0, b0=1.0, b1=0.0)
    viaquad = potential_batch(c, op16, custom)
    assert np.allclose(viaquad, closed, rtol=1e-9)


def test_potential_custom_matches_reference_integral(op8):
    # f = cos has potential integral (1 - cos(x(xi))) over the interval
    nl = custom_nonlinearity(f=np.cos, p=3.0, a0=2.0, a1=1.0, b0=0.5, b1=0.0)
    got = potential_batch(0.3 * np.eye(8)[:1], op8, nl)[0]
    assert got == pytest.approx(0.044496274143657831, abs=1e-10)


def test_potential_is_primitive_of_F(op8):
    rng = np.random.default_rng(9)
    custom = custom_nonlinearity(f=lambda u: 3.0 * u * u + np.cos(u), p=4.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0)
    for nl in (cubic_nonlinearity(), custom):
        x = rng.normal(size=8)
        z = rng.normal(size=8)
        z /= np.linalg.norm(z)
        eps = 1e-5
        plus = potential_batch((x + eps * z)[None, :], op8, nl)[0]
        minus = potential_batch((x - eps * z)[None, :], op8, nl)[0]
        pairing = float(_projected_F(nl, x, op8) @ z)
        assert abs((plus - minus) / (2.0 * eps) - pairing) <= 1e-6


def test_verify_conditions_power_law_passes(op8):
    rep = verify_conditions(power_law_nonlinearity(4.0), op8, samples=2000, seed=0)
    assert rep.passed
    assert [c.name for c in rep.checks] == ["monotonicity", "growth", "coercivity"]
    assert all(c.witness is None for c in rep.checks)
    d = rep.to_dict()
    assert d["passed"] is True and d["seed"] == 0 and len(d["checks"]) == 3


def test_verify_conditions_falsifies_decreasing_f(op8):
    nl = custom_nonlinearity(f=lambda u: -np.ones_like(u), p=3.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0)
    rep = verify_conditions(nl, op8, samples=500, seed=1)
    assert not rep.passed
    mono = rep.checks[0]
    assert mono.name == "monotonicity" and not mono.passed
    assert mono.worst_violation > mono.tolerance
    assert mono.witness is not None and "sample" in mono.witness


def test_verify_conditions_falsifies_overstated_coercivity(op8):
    # F(u) = u only gives <F(x),x> = ||x||^2, so claiming b0 = 1 against
    # the L^3 power fails at large amplitudes
    nl = custom_nonlinearity(f=lambda u: np.ones_like(u), p=3.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0)
    rep = verify_conditions(nl, op8, samples=2000, seed=2)
    coerce = rep.checks[2]
    assert coerce.name == "coercivity" and not coerce.passed


def test_verify_conditions_overflow_is_an_unbounded_violation(op8):
    # |u|^198 overflows at verifier amplitudes; the margins turn non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_conditions(power_law_nonlinearity(200.0), op8, samples=200, seed=0)
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert failed and all(c.worst_violation == math.inf for c in failed)
    assert not any(math.isnan(c.worst_violation) for c in rep.checks)


def test_verify_g_affine_passes(op8):
    fs = affine_forcing(g1=0.3, g2=0.2)
    rep = verify_g(fs, op8, samples=1000, seed=0)
    assert rep.passed
    assert [c.name for c in rep.checks] == ["g0_dominates_origin", "norm_bound", "lipschitz_pairing"]


def test_verify_g_falsifies_understated_origin(op16):
    # the projected constant 0.3 has H norm ~0.2962 > the declared 0.2
    bad = affine_forcing(g1=0.1, g2=0.0, constant=0.3, g0=0.2)
    rep = verify_g(bad, op16, samples=200, seed=0)
    assert not rep.passed
    origin = rep.checks[0]
    assert origin.name == "g0_dominates_origin" and not origin.passed

    ok = affine_forcing(g1=0.1, g2=0.0, constant=0.3, g0=0.3)
    assert verify_g(ok, op16, samples=200, seed=0).passed


def test_forcing_spec_validation():
    with pytest.raises(ValueError):
        ForcingSpec(kind=ZERO, g1=0.1)
    with pytest.raises(ValueError):
        affine_forcing(constant=0.5)
    with pytest.raises(ValueError):
        ForcingSpec(kind="affine", g0=-0.1)
    assert not zero_forcing().velocity_dependent
    assert affine_forcing(g2=0.1).velocity_dependent
    assert not affine_forcing(g1=0.5).velocity_dependent


def test_forcing_batch_zero_and_affine(op8):
    # the velocity channel is the half-smoothed adot / sqrt(lambda)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 8))
    adot = rng.normal(size=(2, 8))
    assert np.all(forcing_modal_batch(zero_forcing(), op8, a, adot) == 0.0)
    fs = affine_forcing(g1=0.2, g2=0.1, constant=0.5, g0=1.0)
    got = forcing_modal_batch(fs, op8, a, adot)
    want = 0.2 * a + 0.1 * adot / op8.sqrt_eigenvalues + 0.5 * constant_modal(op8)
    assert np.allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("m", [8, 512])
def test_custom_forcing_must_sample_every_node(m):
    # m=8 projects with the dense matrices, m=512 with the FFT pair
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), m)
    short = custom_lipschitz_forcing(lambda u, v: 0.1 * u[1:], g0=0.0, g1=0.1, g2=0.0)
    a = np.random.default_rng(3).normal(size=(2, m))
    with pytest.raises(ValueError, match="one sample per grid node"):
        forcing_modal_batch(short, op, a, a)
    with pytest.raises(ValueError, match="one sample per grid node"):
        verify_g(short, op, samples=4, seed=0)
    with pytest.raises(ValueError, match="one sample per grid node"):
        energy_table(op, cubic_nonlinearity(), short, np.zeros(2), a, a)
    full = custom_lipschitz_forcing(lambda u, v: 0.1 * u, g0=0.0, g1=0.1, g2=0.0)
    assert np.allclose(forcing_modal_batch(full, op, a, a), 0.1 * a, rtol=1e-12, atol=1e-13)


def test_tabulated_f_interp_and_clamp():
    f = tabulated_f([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0])
    assert f(np.array([0.5]))[0] == pytest.approx(1.0)
    assert f(np.array([3.0]))[0] == pytest.approx(2.0)
    assert f(np.array([-3.0]))[0] == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        tabulated_f([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        tabulated_f([0.0, 1.0], [0.0, 1.0, 2.0])


def test_nonlinearity_spec_validation():
    with pytest.raises(ValueError):
        power_law_nonlinearity(2.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="linear", p=3.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="power_law", p=4.0, a0=0.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(kind="custom", p=3.0)


# Tables for the exact primitives: 0 as a node, 0 between nodes, and a
# table wholly to the right of 0 (its clamped f is constant on [0, r[0]]).
EXACT_TABLES = {
    "zero_node": (np.linspace(-2.0, 2.0, 41), lambda r: 3.0 * r * r + r),
    "zero_inside": (np.linspace(-2.05, 1.9, 37), lambda r: 3.0 * r * r + np.cos(r)),
    "positive": (np.linspace(0.5, 3.0, 26), lambda r: r**3 + 1.0),
}


def _piecewise_reference(r, fv, u):
    """F(u) and Phi(u) by trapezoid sums over every kink between 0 and u.

    f is linear between consecutive points, so the trapezoid sum is exact for
    F, and trapezoid minus h^3 f'/12 is exact for Phi.
    """
    inner = r[(r > min(0.0, u)) & (r < max(0.0, u))]
    x = np.unique(np.concatenate(([0.0, u], inner)))
    if u < 0.0:
        x = x[::-1]
    y = np.interp(x, r, fv)
    F = [0.0]
    Phi = [0.0]
    for a, b, ya, yb in zip(x[:-1], x[1:], y[:-1], y[1:]):
        h = b - a
        Fb = F[-1] + 0.5 * h * (ya + yb)
        Phi.append(Phi[-1] + 0.5 * h * (F[-1] + Fb) - h * h * (yb - ya) / 12.0)
        F.append(Fb)
    return F[-1], Phi[-1]


@pytest.mark.parametrize("name", sorted(EXACT_TABLES))
def test_table_primitives_match_piecewise_reference(name):
    r, fn = EXACT_TABLES[name]
    fv = fn(r)
    table = tabulated_f(r, fv)
    R = float(np.max(np.abs(r)))
    u = np.concatenate(
        (
            np.linspace(-2.0 * R, 2.0 * R, 161),
            [-1e-3, -3e-7, 0.0, 1e-12, 2e-5, 1e-3],
            [r[0] - 0.1, r[-1] + 0.1],
        )
    )
    got_F = table.F(u)
    got_Phi = table.Phi(u)
    for i, ui in enumerate(u):
        ref_F, ref_Phi = _piecewise_reference(r, fv, float(ui))
        assert abs(got_F[i] - ref_F) <= 1e-10 * abs(ref_F), (ui, got_F[i], ref_F)
        assert abs(got_Phi[i] - ref_Phi) <= 1e-10 * abs(ref_Phi), (ui, got_Phi[i], ref_Phi)
    assert table.F(np.float64(0.0)) == 0.0 and table.Phi(np.float64(0.0)) == 0.0
    # calling the table is still the clamped interpolant
    assert np.array_equal(table(u), np.interp(u, r, fv))


@pytest.mark.parametrize("name", sorted(EXACT_TABLES))
def test_table_primitives_differentiate_to_f_and_F(name):
    r, fn = EXACT_TABLES[name]
    table = tabulated_f(r, fn(r))
    R = float(np.max(np.abs(r)))
    u = np.random.default_rng(5).uniform(-2.0 * R, 2.0 * R, 400)
    eps = 1e-6
    dF = (table.F(u + eps) - table.F(u - eps)) / (2.0 * eps)
    dPhi = (table.Phi(u + eps) - table.Phi(u - eps)) / (2.0 * eps)
    assert np.allclose(dF, table(u), rtol=1e-6, atol=1e-6)
    assert np.allclose(dPhi, table.F(u), rtol=1e-6, atol=1e-6)


def test_table_primitives_reach_stepping_and_potential(op16):
    # The table's exact F and Phi replace quadrature on every path: for a
    # table of f = 3r (exact on a two-node table) F = 1.5u^2 and Phi = u^3/2.
    table = tabulated_f([-50.0, 50.0], [-150.0, 150.0])
    nl = custom_nonlinearity(f=table, p=4.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0, F=table.F, Phi=table.Phi)
    u = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(F_on_grid(nl, u), 1.5 * u * u, rtol=1e-14, atol=1e-14)
    c = np.random.default_rng(8).uniform(-0.5, 0.5, size=(3, 16))
    grid = op16.basis @ c.T
    want = (0.5 * grid.T**3) @ op16.weights
    assert np.allclose(potential_batch(c, op16, nl), want, rtol=1e-12, atol=1e-14)


def test_table_energy_is_conserved_on_a_short_rk4_run(tmp_path):
    # A short unforced RK4 run with a 2001-entry table of 3r^2 (a seeded
    # benchmark configuration).  With quadrature F and Phi, Phi' != F and
    # the energy drifted 2.0e-5 relative against the 1.2e-6 tolerance.
    length, m = 1.89214, 24
    reach = 10.0 * math.sqrt(2.0 / length) * m
    r = np.linspace(-reach, reach, 2001)
    cfg = {
        "domain": {"length": length, "bc": "dirichlet"},
        "modes": m,
        "nonlinearity": {
            "kind": "custom",
            "p": 4.0,
            "a0": 1.0,
            "a1": 0.0803323,
            "b0": 1.0,
            "b1": 0.0,
            "table": {"r": r.tolist(), "f": (3.0 * r * r).tolist()},
        },
        "forcing": {"kind": "zero"},
        "initial": {
            "x0": {"type": "parabola", "amplitude": 1.73555},
            "x1": {"type": "sine", "wavenumber": 2, "amplitude": 0.203757},
        },
        "time": {"T": 0.1, "dt": 1e-3, "integrator": "rk4", "sample_stride": 1},
        "output": {"csv_path": str(tmp_path / "t.csv"), "report_path": str(tmp_path / "r.json")},
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    checks = {c["name"]: c for c in json.loads((tmp_path / "r.json").read_text())["monitor"]["checks"]}
    assert checks["conservation"]["passed"], checks["conservation"]
