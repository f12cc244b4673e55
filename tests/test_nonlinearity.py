"""Nonlinearity primitives, potentials, forcing terms, and the verifiers."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavegalerkin import cli, nonlinearity
from wavegalerkin.nonlinearity import (
    RELATIVE_SLACK,
    ConditionCheck,
    ConditionReport,
    ForcingSpec,
    NonlinearitySpec,
    TabulatedF,
    constant_modal,
    F_on_grid,
    forcing_modal_batch,
    pointwise_F,
    potential_batch,
    verify_conditions,
    verify_g,
)
from wavegalerkin.estimates import energy_table
from wavegalerkin.spectral import DIRICHLET, PERIODIC_MEAN_ZERO, DomainSpec, build_operator, grid_to_modes, modes_to_grid


def _projected_F(nl, x, op):
    """Galerkin projection of F composed with the field of coefficients ``x``."""
    return grid_to_modes(F_on_grid(nl, modes_to_grid(x, op)), op)


def test_primitive_closed_forms():
    r = np.array([2.0, -2.0])
    assert np.allclose(F_on_grid(NonlinearitySpec(p=2), r), [2.0, -2.0])
    assert np.allclose(F_on_grid(NonlinearitySpec(p=4), r), [8.0, -8.0])
    assert np.allclose(F_on_grid(NonlinearitySpec(p=3.0), r), [4.0, -4.0])
    assert np.allclose(F_on_grid(_abs_table_nonlinearity(), r), [4.0, -4.0])
    # every kind, the custom one included, writes F(u) into out and returns it
    for nl in (NonlinearitySpec(p=2), NonlinearitySpec(p=4), NonlinearitySpec(p=3.0), _abs_table_nonlinearity()):
        out = np.full_like(r, np.nan)
        assert pointwise_F(nl)(r, out) is out
        assert np.array_equal(out, F_on_grid(nl, r))


def test_primitive_is_integral_of_f():
    integrands = (
        (NonlinearitySpec(p=4), lambda s: 3.0 * s * s),
        (NonlinearitySpec(p=3.5), lambda s: 2.5 * abs(s) ** 1.5),
    )
    for nl, f in integrands:
        for r in (-2.3, -0.4, 0.7, 3.1):
            ref, _ = quad(f, 0.0, r, epsabs=1e-13)
            assert abs(float(F_on_grid(nl, np.float64(r))) - ref) <= 1e-10 * (1.0 + abs(r) ** (nl.p - 1.0))


def _abs_table_nonlinearity():
    # f = 2|r| is piecewise linear with a node at 0, so on the table's range
    # its exact primitives are F = |u| u and Phi = |u|^3 / 3: the power law
    # at p = 3.
    return NonlinearitySpec(3.0, 1.0, 0.0, 1.0, 0.0, table=TabulatedF([-50.0, 0.0, 50.0], [100.0, 0.0, 100.0]))


def test_cubic_F_first_mode_projections(op8):
    # (sqrt(2) sin(pi xi))^3 pairs to 3/2 on mode 1 and -1/2 on mode 3
    expect = np.zeros(8)
    expect[0], expect[2] = 1.5, -0.5
    assert np.allclose(_projected_F(NonlinearitySpec(p=4), np.eye(8)[0], op8), expect, atol=1e-12)


def test_potential_closed_forms(op8):
    e1 = np.eye(8)[:1]
    assert potential_batch(e1, op8, NonlinearitySpec(p=2))[0] == pytest.approx(0.5, rel=1e-13)
    assert potential_batch(e1, op8, NonlinearitySpec(p=4))[0] == pytest.approx(0.375, rel=1e-12)
    assert potential_batch(np.zeros((1, 8)), op8, NonlinearitySpec(p=4))[0] == 0.0


def test_potential_quadrature_matches_closed_form(op16):
    # the table of f = 2|r| goes through grid quadrature of its Phi; the
    # power law at p = 3 has the same potential in closed form
    rng = np.random.default_rng(2)
    c = rng.uniform(-0.5, 0.5, size=(5, 16))
    closed = potential_batch(c, op16, NonlinearitySpec(p=3.0))
    viaquad = potential_batch(c, op16, _abs_table_nonlinearity())
    assert np.allclose(viaquad, closed, rtol=1e-9)


def test_potential_custom_matches_reference_integral(op8):
    # x = 0.3 e1 = 0.3 sqrt(2) sin(pi xi) >= 0, so the potential density is
    # x^3 / 3, summed with the grid weights
    x = 0.3 * math.sqrt(2.0) * np.sin(math.pi * op8.nodes)
    got = potential_batch(0.3 * np.eye(8)[:1], op8, _abs_table_nonlinearity())[0]
    assert got == pytest.approx(op8.weights @ (x**3 / 3.0), rel=1e-12)


def test_potential_is_primitive_of_F(op8):
    rng = np.random.default_rng(9)
    r = np.linspace(-4.0, 4.0, 81)
    custom = NonlinearitySpec(4.0, 1.0, 1.0, 1.0, 0.0, table=TabulatedF(r, 3.0 * r * r + np.cos(r)))
    for nl in (NonlinearitySpec(p=4), custom):
        x = rng.normal(size=8)
        z = rng.normal(size=8)
        z /= np.linalg.norm(z)
        eps = 1e-5
        plus = potential_batch((x + eps * z)[None, :], op8, nl)[0]
        minus = potential_batch((x - eps * z)[None, :], op8, nl)[0]
        pairing = float(_projected_F(nl, x, op8) @ z)
        assert abs((plus - minus) / (2.0 * eps) - pairing) <= 1e-6


def test_verify_conditions_power_law_passes(op8):
    rep = verify_conditions(NonlinearitySpec(p=4.0), op8)
    assert rep.passed
    assert [c.name for c in rep.checks] == ["monotonicity", "growth", "coercivity", "poincare"]
    assert all(c.witness is None for c in rep.checks)
    d = rep.to_dict()
    # a built-in F is decided on the whole line: no range, and no seed
    assert d["passed"] is True and set(d) == {"passed", "checks"} and len(d["checks"]) == 4
    assert all(set(c) == {"name", "passed"} for c in d["checks"])


def test_verify_conditions_falsifies_decreasing_f(op8):
    # f = -1 everywhere, clamped or not, so F = -u
    nl = NonlinearitySpec(3.0, 1.0, 1.0, 1.0, 0.0, table=TabulatedF([-10.0, 10.0], [-1.0, -1.0]))
    rep = verify_conditions(nl, op8)
    assert not rep.passed and rep.range == (-10.0, 10.0)
    mono = rep.checks[0]
    assert mono.name == "monotonicity" and not mono.passed
    assert mono.witness == {"knot": 0, "u": -10.0, "f": -1.0}


def test_verify_conditions_falsifies_overstated_coercivity(op8):
    # F(u) = u only gives F(u) u = u^2, below |u|^3 once |u| > 1
    nl = NonlinearitySpec(3.0, 1.0, 1.0, 1.0, 0.0, table=TabulatedF([-10.0, 10.0], [1.0, 1.0]))
    coerce = verify_conditions(nl, op8).checks[2]
    assert coerce.name == "coercivity" and not coerce.passed
    w = coerce.witness
    assert abs(w["u"]) > 1.0 and w["lhs"] == pytest.approx(w["u"] ** 2) and w["rhs"] == pytest.approx(abs(w["u"]) ** 3)


def _crosses(check) -> bool:
    """Whether a failed check's witness shows its inequality crossed."""
    w = check.witness
    return w["lhs"] > w["rhs"] if check.name == "growth" else w["lhs"] < w["rhs"]


# A built-in kind is decided by its rules, with no power of u evaluated,
# so they hold at any p: |u|^p overflows from about p = 200 at moderate u.
@pytest.mark.parametrize(
    "p, claim, failed",
    [
        (2060.0, dict(), []),
        (2060.0, dict(b0=0.5, a0=3.0, a1=2.0), []),
        (2060.0, dict(b0=2.0), ["coercivity"]),
        (2060.0, dict(b1=1e-3), ["coercivity"]),
        (2060.0, dict(b0=0.5, b1=1e-3), ["coercivity"]),
        (2060.0, dict(a0=0.5, a1=3.0), ["growth"]),
        (200.0, dict(a0=0.5), ["growth"]),
        (3.0, dict(a0=0.9, a1=0.3), ["growth"]),
        (5.0, dict(b0=1.5), ["coercivity"]),
        (2.5, dict(b0=0.5, b1=0.2), ["coercivity"]),
        (4.0, dict(b0=1.0, b1=0.2), ["coercivity"]),
        (2.0, dict(a0=0.6, a1=0.3), ["growth"]),
        (2.0, dict(a0=0.6, a1=0.4), []),
        (2.0, dict(b0=0.6, b1=0.5), ["coercivity"]),
        (2.0, dict(b0=0.6, b1=0.4), []),
    ],
)
def test_builtin_rules_and_their_witnesses(op8, p, claim, failed):
    rep = verify_conditions(NonlinearitySpec(p=p, **claim), op8)
    assert [c.name for c in rep.checks if not c.passed] == failed
    assert all(_crosses(c) for c in rep.checks if not c.passed)


def test_verify_g_affine_passes(op8):
    fs = ForcingSpec(g1=0.3, g2=0.2)
    rep = verify_g(fs, op8)
    assert rep.passed
    assert [c.name for c in rep.checks] == ["norm_bound", "lipschitz_pairing"]


def test_verify_g_falsifies_understated_origin(op16):
    # the projected constant 0.3 has H norm ~0.2962 > the declared 0.2
    bad = ForcingSpec(g1=0.1, g2=0.0, constant=0.3, g0=0.2)
    rep = verify_g(bad, op16)
    assert not rep.passed
    norm = rep.checks[0]
    assert norm.name == "norm_bound" and not norm.passed
    assert norm.witness == {"origin_norm": pytest.approx(0.2962, abs=1e-3), "g0": 0.2}

    ok = ForcingSpec(g1=0.1, g2=0.0, constant=0.3, g0=0.3)
    assert verify_g(ok, op16).passed


def test_verify_g_norm_does_not_overflow_below_the_float_range(op8):
    # ||g(0, 0)|| = 1e300 ||P 1|| = 9.79e299 is a float, though its square is not
    p1 = float(np.linalg.norm(constant_modal(op8)))
    assert verify_g(ForcingSpec(constant=1e300, g0=1e301), op8).passed
    rep = verify_g(ForcingSpec(constant=1e300, g0=1e299), op8)
    assert not rep.passed
    assert rep.checks[0].witness == {"origin_norm": pytest.approx(1e300 * p1, rel=1e-14), "g0": 1e299}


def test_verify_g_without_a_constant_makes_no_transform(op8, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("g without a constant needs no transform")

    monkeypatch.setattr(nonlinearity, "grid_to_modes", no_transform)
    for fs in (ForcingSpec(), ForcingSpec(g1=0.3, g2=0.2, g0=0.5)):
        assert verify_g(fs, op8).passed


@pytest.mark.parametrize(
    "domain, lambda_min",
    [(DomainSpec(length=4.0, bc=DIRICHLET), (math.pi / 4.0) ** 2), (DomainSpec(length=3.0 * math.pi, bc=PERIODIC_MEAN_ZERO), 4.0 / 9.0)],
)
def test_poincare_is_decided_by_verify_conditions(domain, lambda_min):
    # the operator builds; its lambda_min < 1 fails the last check, and only it
    rep = verify_conditions(NonlinearitySpec(p=4), build_operator(domain, 4))
    assert [c.name for c in rep.checks if not c.passed] == ["poincare"]
    assert rep.checks[-1].witness == {"lambda_min": pytest.approx(lambda_min, rel=1e-14)}


_SHAPE_TABLE = TabulatedF([-10.0, 0.0, 10.0], [1.0, 0.5, 1.0])


@pytest.mark.parametrize(
    "nl",
    [
        NonlinearitySpec(p=2),
        NonlinearitySpec(p=4),
        NonlinearitySpec(p=3.0),
        NonlinearitySpec(p=3.0, a0=0.5, b0=2.0),
        NonlinearitySpec(3.0, 1.0, 10.0, 0.01, 0.0, table=_SHAPE_TABLE),
        NonlinearitySpec(3.0, 1.0, 1.0, 1.0, 0.0, table=TabulatedF([-10.0, 10.0], [-1.0, -1.0])),
    ],
    ids=["linear", "cubic", "power_law", "power_law-overstated", "table", "table-decreasing"],
)
@pytest.mark.parametrize(
    "fs",
    [ForcingSpec(), ForcingSpec(g1=0.3, g2=0.2), ForcingSpec(g1=0.1, constant=0.3, g0=0.2)],
    ids=["zero", "affine", "affine-understated"],
)
@pytest.mark.parametrize("length", [1.0, 4.0])
def test_every_check_has_one_shape(nl, fs, length):
    op = build_operator(DomainSpec(length=length, bc=DIRICHLET), 8)
    for rep in (verify_conditions(nl, op), verify_g(fs, op)):
        for check in rep.to_dict()["checks"]:
            assert set(check) <= {"name", "passed", "witness"}
            assert ("witness" in check) is (not check["passed"])


# Drawn falsifiers, kept as references that the decided reports must agree
# with: coefficients uniform in [-1, 1] scaled by amplitudes uniform in
# [0, REFERENCE_AMPLITUDE_MAX], checked by grid quadrature.
REFERENCE_AMPLITUDE_MAX = 10.0


def _reference_draw_batch(rng, n, m):
    coeffs = rng.uniform(-1.0, 1.0, size=(n, m))
    amps = rng.uniform(0.0, REFERENCE_AMPLITUDE_MAX, size=(n, 1))
    return coeffs * amps


def _reference_reach(op):
    """The largest grid value a reference draw can reach."""
    return REFERENCE_AMPLITUDE_MAX * math.sqrt(2.0 / op.domain.length) * op.modes


def _margin_check(name, violation, tol, witness_extra):
    """A drawn check: it fails at the sample with the largest ``violation - tol``, which its witness names.

    A NaN margin is an unbounded violation.
    """
    margin = np.asarray(violation, dtype=np.float64) - tol
    i = int(np.argmax(np.where(np.isnan(margin), np.inf, margin)))
    if margin[i] <= 0.0:
        return ConditionCheck(name, True)
    return ConditionCheck(name, False, {"sample": i, **{k: float(v[i]) for k, v in witness_extra.items()}})


def _reference_verify_g(fs, op, samples, seed):
    """The norm bound on the origin and on drawn pairs, and the pairing bound on drawn triples."""
    rng = np.random.default_rng(seed)
    m = op.modes

    def g_modal(ca, cv):
        return forcing_modal_batch(fs, op, ca, cv * op.sqrt_eigenvalues[None, :])

    # sample 0 is the origin, where the bound reads ||g(0, 0)||_H <= g0
    cx = np.r_[np.zeros((1, m)), _reference_draw_batch(rng, samples, m)]
    cv = np.r_[np.zeros((1, m)), _reference_draw_batch(rng, samples, m)]
    lhs = np.linalg.norm(g_modal(cx, cv), axis=1)
    rhs = fs.g1 * np.linalg.norm(cx, axis=1) + fs.g2 * np.linalg.norm(cv, axis=1) + fs.g0
    tol = RELATIVE_SLACK * (1.0 + np.abs(rhs))
    c_norm = _margin_check("norm_bound", lhs - rhs, tol, {"lhs": lhs, "rhs": rhs})

    cx, cv = cx[1:], cv[1:]
    cx1 = _reference_draw_batch(rng, samples, m)
    cv1 = _reference_draw_batch(rng, samples, m)
    cz = _reference_draw_batch(rng, samples, m)
    dg = g_modal(cx, cv) - g_modal(cx1, cv1)
    lhs_pair = np.abs(np.sum(dg * cz, axis=1))
    rhs_pair = fs.g1 * np.abs(np.sum((cx - cx1) * cz, axis=1)) + fs.g2 * np.abs(np.sum((cv - cv1) * cz, axis=1))
    tol_pair = RELATIVE_SLACK * (1.0 + np.abs(rhs_pair) + np.abs(lhs_pair))
    c_pair = _margin_check("lipschitz_pairing", lhs_pair - rhs_pair, tol_pair, {"lhs": lhs_pair, "rhs": rhs_pair})
    return ConditionReport(checks=(c_norm, c_pair))


@np.errstate(over="ignore", invalid="ignore")
def _reference_verify_conditions(nl, op, samples, seed):
    """Monotonicity, growth and coercivity in their norm forms, on drawn field pairs, and Poincare."""
    rng = np.random.default_rng(seed)
    cx = _reference_draw_batch(rng, samples, op.modes)
    cz = _reference_draw_batch(rng, samples, op.modes)
    w = op.weights
    ux, uz = modes_to_grid(cx, op), modes_to_grid(cz, op)
    fx, fz = F_on_grid(nl, ux), F_on_grid(nl, uz)

    mono = ((fx - fz) * (ux - uz)) @ w
    c_mono = _margin_check("monotonicity", -mono, 1e-10, {"pairing": mono})

    p = nl.p
    q = p / (p - 1.0)
    norm_p = (np.abs(ux) ** p @ w) ** (1.0 / p)
    norm_h = np.sqrt(np.sum(cx * cx, axis=1))
    dual = (np.abs(fx) ** q @ w) ** (1.0 / q)
    rhs_g = nl.a0 * norm_p ** (p - 1.0) + nl.a1 * norm_h
    c_growth = _margin_check("growth", dual - rhs_g, RELATIVE_SLACK * (1.0 + np.abs(rhs_g)), {"lhs": dual, "rhs": rhs_g})

    pairing = (fx * ux) @ w
    rhs_c = nl.b0 * norm_p**p + nl.b1 * norm_h**2
    c_coerce = _margin_check("coercivity", rhs_c - pairing, RELATIVE_SLACK * (1.0 + np.abs(rhs_c)), {"lhs": pairing, "rhs": rhs_c})
    # lambda_min in closed form: (pi/l)^2, or (2 pi/l)^2 on the mean-zero periodic space
    l = op.domain.length
    c_poincare = ConditionCheck("poincare", (math.pi / l if op.domain.bc == DIRICHLET else 2.0 * math.pi / l) ** 2 >= 1.0)
    return ConditionReport(checks=(c_mono, c_growth, c_coerce, c_poincare))


def _no_generator(*args, **kwargs):
    raise AssertionError("decided checks must not draw")


# Wherever a decided report passes, the drawn reference must pass too.
BUILTIN_KINDS = [NonlinearitySpec(p=2), NonlinearitySpec(p=4)] + [NonlinearitySpec(p=p) for p in (2.5, 3.3, 4.0, 6.0)]


@pytest.mark.parametrize(
    "nl", BUILTIN_KINDS, ids=["linear-p2", "cubic-p4", "power_law-p2.5", "power_law-p3.3", "power_law-p4", "power_law-p6"]
)
@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_decided_conditions_agree_with_the_drawn_ones(nl, bc, monkeypatch):
    op = build_operator(DomainSpec(length=1.7, bc=bc), 16)
    # a claim a hair weaker than the identities is decided too
    weaker = dataclasses.replace(nl, a0=1.0 + 1e-12, b0=1.0 - 1e-12)
    drawn = [_reference_verify_conditions(x, op, 500, 4) for x in (nl, weaker)]
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    for x, want in zip((nl, weaker), drawn):
        got = verify_conditions(x, op)
        assert [c.name for c in got.checks] == [c.name for c in want.checks]
        assert got.passed and want.passed


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_decided_forcing_agrees_with_the_drawn_one(bc, monkeypatch):
    op = build_operator(DomainSpec(length=1.7, bc=bc), 16)
    c = 0.4
    origin = c * float(np.linalg.norm(constant_modal(op)))
    cases = [
        ForcingSpec(),
        ForcingSpec(g1=0.3, g2=0.2),
        ForcingSpec(g1=0.3, g2=0.2, constant=c, g0=origin * (1.0 + 1e-6)),
        ForcingSpec(g1=0.1, constant=-c, g0=origin * (1.0 + 1e-6)),
        ForcingSpec(g1=0.1, g2=0.5, constant=c, g0=origin * (1.0 - 1e-6)),
    ]
    drawn = [_reference_verify_g(fs, op, 500, 5) for fs in cases]
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    for fs, want in zip(cases, drawn):
        got = verify_g(fs, op)
        assert [ch.name for ch in got.checks] == [ch.name for ch in want.checks]
        assert [ch.passed for ch in got.checks] == [ch.passed for ch in want.checks]
        # a failed norm bound fails at the origin, with the norm the drawn report computes there
        if not got.passed:
            assert want.checks[0].witness["sample"] == 0
            w = want.checks[0].witness
            assert got.checks[0].witness == {"origin_norm": pytest.approx(w["lhs"], rel=1e-14), "g0": w["rhs"]}
    # only the understated g0 fails, and only on the basis that sees constants
    assert [verify_g(fs, op).passed for fs in cases] == [True] * 4 + [bc == PERIODIC_MEAN_ZERO]


def _random_monotone_table(rng, p, reach):
    """A seeded table with f >= 0 and f(0) > 0, roughly (p-1)|r|^(p-2), over [-reach, reach]."""
    r = np.sort(np.r_[rng.uniform(-reach, reach, 40), -reach, reach])
    f = (p - 1.0) * np.abs(r) ** (p - 2.0) * np.exp(0.3 * rng.normal(size=r.size)) + rng.uniform(0.5, 2.0)
    return TabulatedF(r, f)


def _true_constants(table, p, c):
    """The tightest b0 (with b1 = 0) and a0 (with the given a1) on a dense grid of the range.

    A dense minimum can only overstate the true one, so claims 1% either
    side of these are inside and outside the truth.
    """
    lo, hi = table.range
    u = np.unique(np.r_[np.linspace(lo, hi, 400001), table.r])
    u = u[u != 0.0]
    F, au = table.F(u), np.abs(u)
    b0 = float(np.min(F * u / au**p))
    a1 = 2.0 * float(table(np.array(0.0))) / c
    a0 = float(np.max((np.abs(F) - a1 * c * au) / au ** (p - 1.0)))
    return a0, a1, b0


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.5])
def test_decided_table_is_never_falsified_by_reference_draws(p, monkeypatch):
    op = build_operator(DomainSpec(length=1.5, bc=DIRICHLET), 6)
    c = op.domain.length ** ((2.0 - p) / (2.0 * p))
    rng = np.random.default_rng(int(10 * p))
    for k in range(3):
        # the table covers every grid value a reference draw reaches
        table = _random_monotone_table(rng, p, 1.05 * _reference_reach(op))
        a0, a1, b0 = _true_constants(table, p, c)
        assert a0 > 0.0 and b0 > 0.0
        for scale, inside in ((1.01, True), (0.99, False)):
            claims = (
                NonlinearitySpec(p, a0 * scale, a1, b0 / scale, 0.0, table=table),
                NonlinearitySpec(p, a0 * scale, a1, b0, 0.0, table=table),
                NonlinearitySpec(p, a0, a1, b0 / scale, 0.0, table=table),
            )
            drawn = [_reference_verify_conditions(nl, op, 500, 100 * k + int(scale * 100)) for nl in claims]
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", _no_generator)
                decided = [verify_conditions(nl, op) for nl in claims]
            for got, want in zip(decided, drawn):
                if got.passed:
                    assert want.passed, (p, k, scale, want.to_dict())
            want_growth, want_coercivity = (True, True) if inside else (False, False)
            assert decided[0].passed is inside
            assert (decided[1].checks[1].passed, decided[2].checks[2].passed) == (want_growth, want_coercivity)
            assert all(_crosses(ch) for rep in decided for ch in rep.checks if not ch.passed)


def test_benchmark_table_construction_passes(monkeypatch):
    # f = 3 r^2 over every grid value a draw of amplitude 10 reaches, with
    # a1 from the interpolation error bound 3 h^2 / 4, 1.5 times over.
    length, modes, entries = 1.3, 24, 2001
    reach = 10.0 * math.sqrt(2.0 / length) * modes
    r = np.linspace(-reach, reach, entries)
    h = 2.0 * reach / (entries - 1)
    a1 = float(f"{1.5 * 0.75 * h * h * length**0.25:.6g}")
    nl = NonlinearitySpec(4.0, 1.0, a1, 1.0, 0.0, table=TabulatedF(r, 3.0 * r * r))
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        rep = verify_conditions(nl, build_operator(DomainSpec(length=length, bc=bc), modes))
        assert rep.passed
        assert rep.range == (-reach, reach)


def test_coercivity_failing_only_between_knots_is_refused(op8):
    # On [1, 2], f rises from 0 to 14: F = 1.1 + 7 (u - 1)^2 meets u^3 at
    # both knots (1.1 >= 1, 8.1 >= 8) but falls below it in between.
    table = TabulatedF([0.0, 1.0, 2.0], [2.2, 0.0, 14.0])
    nl = NonlinearitySpec(4.0, 10.0, 10.0, 1.0, 0.0, table=table)
    knots = np.array([0.0, 1.0, 2.0])
    assert np.all(table.F(knots) * knots >= knots**4)
    rep = verify_conditions(nl, op8)
    assert [c.name for c in rep.checks if not c.passed] == ["coercivity"]
    w = rep.checks[2].witness
    # the least of F(u) - u^3 on (1, 2), where f(u) = 14 (u - 1) meets 3 u^2
    assert w["u"] == pytest.approx((14.0 - math.sqrt(28.0)) / 6.0, rel=1e-12)
    assert w["lhs"] < w["rhs"]


def test_negative_f_at_one_knot_fails_monotonicity_there(op8):
    r = np.linspace(-5.0, 5.0, 11)
    f = 3.0 * r * r + 0.5
    f[7] = -0.25
    rep = verify_conditions(NonlinearitySpec(4.0, 1.0, 10.0, 0.1, 0.0, table=TabulatedF(r, f)), op8)
    mono = rep.checks[0]
    assert not mono.passed
    assert mono.witness == {"knot": 7, "u": 2.0, "f": -0.25}
    assert mono.to_dict() == {"name": "monotonicity", "passed": False, "witness": mono.witness}


def test_forcing_spec_validation(op8):
    with pytest.raises(ValueError):
        ForcingSpec(g1=-0.1)
    with pytest.raises(ValueError):
        ForcingSpec(g0=-0.1)
    # g0 bounds ||g(0, 0)||, which depends on the interval: a constant
    # without it constructs, and verify_g refuses it with its witness
    norm_bound = verify_g(ForcingSpec(constant=0.5), op8).checks[0]
    origin = 0.5 * float(np.linalg.norm(constant_modal(op8)))
    assert norm_bound.name == "norm_bound" and not norm_bound.passed
    assert norm_bound.witness == {"origin_norm": origin, "g0": 0.0}
    with pytest.raises(ValueError, match="finite"):
        ForcingSpec(constant=math.inf)
    # g is zero exactly when its coefficients are, whatever g0 states
    assert ForcingSpec().unforced and ForcingSpec(g0=2.0).unforced
    assert not any(ForcingSpec(**k).unforced for k in (dict(g1=0.1), dict(g2=0.1), dict(constant=-0.1, g0=1.0)))
    assert not ForcingSpec().velocity_dependent
    assert ForcingSpec(g2=0.1).velocity_dependent
    assert not ForcingSpec(g1=0.5).velocity_dependent


def test_forcing_batch_zero_and_affine(op8):
    # the velocity channel is the half-smoothed adot / sqrt(lambda)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 8))
    adot = rng.normal(size=(2, 8))
    assert np.all(forcing_modal_batch(ForcingSpec(), op8, a, adot) == 0.0)
    fs = ForcingSpec(g1=0.2, g2=0.1, constant=0.5, g0=1.0)
    got = forcing_modal_batch(fs, op8, a, adot)
    want = 0.2 * a + 0.1 * adot / op8.sqrt_eigenvalues + 0.5 * constant_modal(op8)
    assert np.allclose(got, want, rtol=1e-14)


def test_tabulated_f_interp_and_clamp():
    f = TabulatedF([-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0])
    assert f(np.array([0.5]))[0] == pytest.approx(1.0)
    assert f(np.array([3.0]))[0] == pytest.approx(2.0)
    assert f(np.array([-3.0]))[0] == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        TabulatedF([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedF([0.0, 1.0], [0.0, 1.0, 2.0])


def test_nonlinearity_spec_validation():
    with pytest.raises(ValueError, match=">= 2"):
        NonlinearitySpec(p=1.5)
    with pytest.raises(ValueError):
        NonlinearitySpec(p=4.0, a0=0.0)
    # a table is a TabulatedF with its exact primitives, and needs p > 2
    table = TabulatedF([-1.0, 1.0], [-3.0, 3.0])
    with pytest.raises(ValueError, match="TabulatedF"):
        NonlinearitySpec(p=3.0, table=np.cos)
    with pytest.raises(ValueError, match="p must be > 2"):
        NonlinearitySpec(2.0, 1.0, 0.0, 1.0, 0.0, table=table)


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
    table = TabulatedF(r, fv)
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
    table = TabulatedF(r, fn(r))
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
    table = TabulatedF([-50.0, 50.0], [-150.0, 150.0])
    nl = NonlinearitySpec(4.0, 1.0, 1.0, 1.0, 0.0, table=table)
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
