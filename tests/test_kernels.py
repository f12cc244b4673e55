"""The stepping loop: stride, divergence screen, agreement with the textbook loop, FFT/dense agreement."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from wavegalerkin import kernels, spectral
from wavegalerkin.nonlinearity import (
    F_on_grid,
    affine_forcing,
    constant_modal,
    cubic_nonlinearity,
    custom_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    zero_forcing,
)
from wavegalerkin.solver import (
    STORMER_VERLET,
    SolverConfig,
    State,
    _galerkin_term,
    _stepping_terms,
    integrate,
    project_initial_data,
)
from wavegalerkin.spectral import (
    DIRICHLET,
    FFT_MIN_MODES,
    PERIODIC_MEAN_ZERO,
    DomainSpec,
    build_operator,
    dealias_floor,
    grid_to_modes,
    modes_to_grid,
)


def test_paths_agree_under_verlet(monkeypatch):
    # At m=512 stepping runs on the FFT pair; on an operator that the raised
    # crossover puts on dense products it must give the same Verlet
    # trajectory to the transforms' round-off.
    m = 512
    assert m >= FFT_MIN_MODES
    cfg = SolverConfig(T=0.025, dt=2.5e-4, integrator=STORMER_VERLET)
    nl, fs = power_law_nonlinearity(4.0), zero_forcing()
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        op = build_operator(DomainSpec(length=1.0, bc=bc), m)
        x = op.nodes
        u0 = x * (1.0 - x) if bc == DIRICHLET else 0.8 * np.sin(2.0 * math.pi * x)
        init = project_initial_data(u0, 0.3 * np.sin(2.0 * math.pi * x), op).state
        fft = integrate(init, cfg, op, nl, fs)
        assert op._fft is not None
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "FFT_MIN_MODES", m + 1)
            dense_op = build_operator(op.domain, m)
            dense = integrate(init, cfg, dense_op, nl, fs)
            assert dense_op._fft is None
        assert not np.array_equal(fft.a, dense.a)
        for want, got in ((dense.a, fft.a), (dense.adot, fft.adot)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_run_numpy_stride_and_divergence():
    # a'' = a grows like e^t and must trip the ceiling near t = ln(5)
    a0 = np.array([1.0])
    v0 = np.array([1.0])
    a_hist, adot_hist, rec, div = kernels.run_numpy(a0, v0, 1e-3, 2000, 10, 5.0, False, _copy_a)
    assert div > 0
    assert rec[0] == 0 and rec[-1] == div
    assert np.all(np.diff(rec) > 0)
    assert abs(a_hist[-1, 0]) > 5.0
    assert abs(div * 1e-3 - np.log(5.0)) < 0.05
    first = div

    a_hist, _, rec, div = kernels.run_numpy(a0, v0, 1e-3, 100, 10, 1e12, False, _copy_a)
    assert div == -1
    assert list(rec) == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert rec.dtype == np.int64 and a_hist.shape == (11, 1)
    # a divergence on a recorded step is recorded once
    _, _, rec, div = kernels.run_numpy(a0, v0, 1e-3, 2000, first, 5.0, False, _copy_a)
    assert div == first and list(rec) == [0, first]
    # Verlet takes no velocity-dependent forcing
    with pytest.raises(ValueError, match="Verlet"):
        kernels.run_numpy(a0, v0, 1e-3, 10, 1, 1e12, True, _copy_a, 0.0, np.ones(1))

    # a'' = a^3 from 1e120 overflows in the first step: divergence, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hist, _, rec, div = kernels.run_numpy(np.array([1e120]), v0, 1e-3, 100, 10, 1e300, False, _cube)
    assert div == 1 and list(rec) == [0, 1]
    assert not np.isfinite(a_hist[-1, 0])


def _cube(a, out):
    np.power(a, 3, out=out)


def _copy_a(a, out):
    out[...] = a


def _negate_a(a, out):
    np.negative(a, out=out)


def _textbook_value(galerkin, g1=0.0, damping=None):
    """``value(a, adot)``, a new array: the acceleration ``run_numpy`` takes as terms, in one expression."""

    def value(a, adot):
        out = np.empty_like(a)
        galerkin(a, out)
        out = out + g1 * a
        return out if damping is None else out + damping * adot

    return value


# The textbook stepping loop and acceleration: one new array per operation
# and the kind dispatch in the call.  The acceleration is one function
# ``accel(a, adot)`` that returns a new array, forcing included.
@np.errstate(over="ignore", invalid="ignore")
def _reference_run_numpy(a0, adot0, dt, n_steps, stride, ceiling, use_verlet, accel):
    m = a0.shape[0]
    max_rec = n_steps // stride + 2
    a_hist = np.empty((max_rec, m))
    adot_hist = np.empty((max_rec, m))
    rec_steps = np.empty(max_rec, dtype=np.int64)
    a = a0.copy()
    adot = adot0.copy()
    a_hist[0] = a
    adot_hist[0] = adot
    rec_steps[0] = 0
    n_rec = 1
    diverged_step = -1
    h = dt
    acc = accel(a, adot) if use_verlet else None
    for step in range(1, n_steps + 1):
        if use_verlet:
            adot = adot + 0.5 * h * acc
            a = a + h * adot
            acc = accel(a, adot)
            adot = adot + 0.5 * h * acc
        else:
            k1 = accel(a, adot)
            k2 = accel(a + 0.5 * h * adot, adot + 0.5 * h * k1)
            k3 = accel(a + 0.5 * h * adot + 0.25 * h * h * k1, adot + 0.5 * h * k2)
            k4 = accel(a + h * adot + 0.5 * h * h * k2, adot + h * k3)
            a = a + (h * adot + (h * h / 6.0) * (k1 + k2 + k3))
            adot = adot + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = not (np.all(np.isfinite(a)) and np.all(np.isfinite(adot))) or np.max(np.abs(a)) > ceiling
        if bad:
            a_hist[n_rec] = a
            adot_hist[n_rec] = adot
            rec_steps[n_rec] = step
            n_rec += 1
            diverged_step = step
            break
        if step % stride == 0:
            a_hist[n_rec] = a
            adot_hist[n_rec] = adot
            rec_steps[n_rec] = step
            n_rec += 1
    return a_hist[:n_rec].copy(), adot_hist[:n_rec].copy(), rec_steps[:n_rec].copy(), diverged_step


def _reference_accel(op, nl, fs):
    lam = np.ascontiguousarray(op.eigenvalues)
    sqrt_lam = np.ascontiguousarray(op.sqrt_eigenvalues)
    gc = fs.constant * constant_modal(op) if fs.constant != 0.0 else None
    pm2 = nl.p - 2.0

    def value(a, adot):
        if nl.p == 2.0:
            out = -(lam * a)
        else:
            u = modes_to_grid(a, op)
            if nl.table is not None:
                w = F_on_grid(nl, u)
            elif nl.p == 4.0:
                w = u * u * u
            else:
                w = np.abs(u) ** pm2 * u
            out = -(lam * grid_to_modes(w, op))
        if fs.unforced:
            return out
        extra = fs.g1 * a + (fs.g2 * adot) / sqrt_lam
        if gc is not None:
            extra = extra + gc
        return out + extra

    return value


def _assert_runs_identical(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape
        # equal_nan only matters for the terminal row of a diverged run
        assert np.array_equal(g, w, equal_nan=True)
    assert got[3] == want[3]


# RK4 sums its stages inside BLAS products, in another order than the
# textbook expressions, and forms the new state in one product rather than
# as the old state plus an increment, so the loops agree to round-off and
# not bit for bit.  Measured over every case of
# test_run_numpy_agrees_with_the_reference_loop, the largest gap was 6.7e-15
# of the largest entry (m=512 Dirichlet, table F, affine forcing with a
# constant, Verlet, stride 1), and the largest RK4 gap 4.4e-15 (m=512
# Dirichlet, table F, damped affine forcing without a constant, stride 1).
# The bound leaves a factor of about 150 above that.  A 1e-9 change in the
# k2 weight moves the run by 1.0e-9, a factor of 1000 beyond it, and a
# 1e-9 change in g1 by 1.0e-11, a factor of 10
# (test_agreement_bound_catches_a_perturbed_k2_weight and
# test_agreement_bound_catches_a_perturbed_g1).
AGREE_RTOL = 1e-12


def _run_gap(got, want) -> float:
    """Largest entry gap of two runs' histories, relative to the largest entry.

    The step numbers and the stop step must match exactly, and non-finite
    entries (the terminal row of a diverged run) must sit in the same places.
    """
    assert list(got[2]) == list(want[2]) and got[3] == want[3]
    gap = 0.0
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype and g.shape == w.shape
        fin = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), fin)
        if fin.any():
            scale = np.max(np.abs(w[fin]))
            gap = max(gap, float(np.max(np.abs(g[fin] - w[fin]))) / scale if scale > 0 else 0.0)
    return gap


def _assert_runs_agree(got, want):
    assert _run_gap(got, want) <= AGREE_RTOL


_R = np.linspace(-3.0, 3.0, 41)
_TABLE = tabulated_f(_R, _R**3 + 2.0 * _R)
# An asymmetric table without a node at 0, narrower than the grid values of
# _initial_modal, so the stepping loops read both clamped tails of F
# (test_clamped_table_reaches_both_tails).
_CLAMPED = tabulated_f([-0.15, -0.05, 0.1], [1.5, 1.0, 1.2])

NL_CASES = {
    "cubic": cubic_nonlinearity(),
    "power_law": power_law_nonlinearity(3.5),
    "linear": linear_nonlinearity(),
    "table": custom_nonlinearity(_TABLE, 4.0, 1.0, 2.0, 0.1, 0.0),
    "clamped_table": custom_nonlinearity(_CLAMPED, 3.0, 1.0, 1.0, 0.1, 0.0),
}
FS_CASES = {
    "zero": zero_forcing(),
    "affine": affine_forcing(g1=0.1, g2=0.05, constant=0.2, g0=0.3),
    "affine_no_constant": affine_forcing(g1=0.2, g2=0.07),
}


def _without_damping(fs):
    """``fs`` with ``g2 = 0``: velocity Verlet takes no velocity-dependent forcing."""
    return dataclasses.replace(fs, g2=0.0)


def _initial_modal(op):
    # Every mode carries weight, so the top modes' stage terms, which are
    # comparable to the state there, move the trajectory when a coefficient
    # moves by one ulp.  Grid values stay O(0.3) and the run stays stable.
    rng = np.random.default_rng(op.modes)
    scale = 0.3 / math.sqrt(op.modes)
    return scale * rng.normal(size=op.modes), scale * op.sqrt_eigenvalues * rng.normal(size=op.modes)


# m=6 steps on dense products, m=512 on the FFT pair, under both BCs
@pytest.fixture(
    scope="module",
    params=[(DIRICHLET, 6), (DIRICHLET, 512), (PERIODIC_MEAN_ZERO, 6), (PERIODIC_MEAN_ZERO, 512)],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def stepping_op(request):
    bc, m = request.param
    return build_operator(DomainSpec(length=1.0, bc=bc), m)


def test_clamped_table_reaches_both_tails(stepping_op):
    # the initial data alone leaves the table range on each side
    u = modes_to_grid(_initial_modal(stepping_op)[0], stepping_op)
    assert u.min() < _CLAMPED.r[0] and u.max() > _CLAMPED.r[-1]
    assert 0.0 not in _CLAMPED.r


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_fft_galerkin_term_is_the_batch_maps_bit_for_bit(bc):
    # The term runs on RK4's (2, m) blocks in the FFT's own grid order
    # (Makhoul's, for Dirichlet) and skips the reordering round trip; each
    # row must still be exactly the natural-order batch maps' value at that
    # row.  The floor and floor+1 give grids of both parities and, with
    # m >= n/2, the FFT bins past the Nyquist one; _CLAMPED is not odd, so it
    # takes the sign flips.
    rng = np.random.default_rng(11)
    nls = [cubic_nonlinearity(), power_law_nonlinearity(3.5), power_law_nonlinearity(4.0), NL_CASES["clamped_table"]]
    for m in (FFT_MIN_MODES, FFT_MIN_MODES + 1, 512):
        for n in (None, dealias_floor(m, bc), dealias_floor(m, bc) + 1, 3 * m):
            op = build_operator(DomainSpec(length=1.0, bc=bc, grid_points=n), m)
            assert op._fft is not None
            for nl in nls:
                term = _galerkin_term(op, nl, 2)
                # two calls in a row, on different blocks, through the same buffers
                for scale in (0.3, 0.05):
                    block = scale * rng.normal(size=(2, m)) / np.sqrt(np.arange(1, m + 1))
                    got = np.full((2, m), np.nan)
                    term(block, got)
                    for a, row in zip(block, got):
                        want = -(op.eigenvalues * grid_to_modes(F_on_grid(nl, modes_to_grid(a, op)), op))
                        assert np.array_equal(row, want), (m, op.grid_points, nl.p, nl.table is None)
            assert "basis" not in vars(op)


def _stiff_dt(op):
    return 0.4 / float(np.max(op.sqrt_eigenvalues))


@pytest.mark.parametrize("fs_name", list(FS_CASES))
@pytest.mark.parametrize("nl_name", list(NL_CASES))
def test_run_numpy_agrees_with_the_reference_loop(stepping_op, nl_name, fs_name):
    op, nl, fs = stepping_op, NL_CASES[nl_name], FS_CASES[fs_name]
    a0, v0 = _initial_modal(op)
    # dt*sqrt(lambda_max) = 0.4: every stage term is large enough that a
    # change in any coefficient shows in the trajectory.
    dt = _stiff_dt(op)
    for use_verlet in (False, True):
        if use_verlet:
            fs = _without_damping(fs)
        for stride in (1, 7):
            args = (a0, v0, dt, 35, stride, 1e12, use_verlet)
            got = kernels.run_numpy(*args, *_stepping_terms(op, nl, fs, 1 if use_verlet else 2))
            want = _reference_run_numpy(*args, _reference_accel(op, nl, fs))
            assert got[3] == -1 and list(got[2]) == list(range(0, 36, stride))
            _assert_runs_agree(got, want)
    # the inputs are not written to
    assert all(np.array_equal(x, y) for x, y in zip((a0, v0), _initial_modal(op)))


@pytest.mark.parametrize("fs_name", ["zero", "affine"])
@pytest.mark.parametrize("nl_name", ["cubic", "power_law", "table"])
def test_run_numpy_repeats_bitwise(stepping_op, nl_name, fs_name):
    # Same inputs, same bits: the BLAS stage sums are deterministic, and
    # fresh closures and buffers (other addresses) do not change them.
    op, nl, fs = stepping_op, NL_CASES[nl_name], FS_CASES[fs_name]
    a0, v0 = _initial_modal(op)
    for use_verlet in (False, True):
        if use_verlet:
            fs = _without_damping(fs)
        args = (a0, v0, _stiff_dt(op), 35, 1, 1e12, use_verlet)
        rows = 1 if use_verlet else 2
        first = kernels.run_numpy(*args, *_stepping_terms(op, nl, fs, rows))
        np.empty(np.random.default_rng(1).integers(1, 100))  # shift later allocations
        _assert_runs_identical(kernels.run_numpy(*args, *_stepping_terms(op, nl, fs, rows)), first)


def _textbook_tableau(h):
    # The zero-forcing tableau written out by hand, scalar by scalar, over
    # Z = [n4, n3, n2, n1, c, adot, A2, a].  The weights on c are the sums
    # of the weights on the stages that read it, in the order the tableau
    # sums them, and A2' = a' + h/2 adot' entry by entry.
    hh_4, hh_2, hh_6 = 0.25 * h * h, 0.5 * h * h, h * h / 6.0
    round2 = np.array([[hh_2, 0.0, hh_2, h, 0.0, 1.0], [0.0, hh_4, hh_4, 0.5 * h, 0.0, 1.0]])
    new_v = [h / 6.0, h / 3.0, h / 3.0, h / 6.0, h / 6.0 + h / 3.0 + h / 3.0 + h / 6.0, 1.0, 0.0, 0.0]
    new_a = [0.0, hh_6, hh_6, hh_6, hh_6 * 3.0, h, 0.0, 1.0]
    new_a2 = [x + 0.5 * h * y for x, y in zip(new_a, new_v)]
    return (round2, slice(2, 8)), None, None, (np.array([new_v, new_a2, new_a]), slice(0, 8))


def _tableau_steps():
    ops = [build_operator(DomainSpec(length=1.0, bc=DIRICHLET), m) for m in (6, 512)]
    return [1e-3, 5e-4, 2.5e-4] + [_stiff_dt(op) for op in ops]


def test_zero_forcing_tableau_is_the_textbook_one_bit_for_bit():
    for h in _tableau_steps():
        got, want = kernels._rk4_tableau(h), _textbook_tableau(h)
        assert got[1:3] == want[1:3] == (None, None)
        for (g, g_rows), (w, w_rows) in zip(got[:1] + got[3:], want[:1] + want[3:]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), h
            assert g_rows == w_rows


# The rows of Z each product of a step may read: the rows a step starts
# from (adot, A2 and a, last in Z), the row c before them and the rows the
# step has written before the product runs.  A product reads every row
# from the first its weights touch to the last, so each may start no
# earlier than the row given here.  Undamped Z is [n4, n3, n2, n1, c,
# adot, A2, a]; damped Z is [e4, n4, n3, e3, e2, e1, n2, n1, c, adot, A2,
# a], and a step writes n1 n2, e1, e2, then n3 n4 and e3, then e4.  The
# update writes the other buffer's last three rows.
READABLE = {
    False: {"round2": 2, "update": 0},
    True: {"vel2": 5, "round2": 4, "vel4": 2, "update": 0},
}


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("g1", [0.0, 0.3])
def test_tableau_reads_only_rows_its_step_has_written(g1, damped):
    size = 12 if damped else 8
    for h in _tableau_steps():
        round2, vel2, vel4, update = kernels._rk4_tableau(h, g1, damped)
        products = {"round2": round2, "vel2": vel2, "vel4": vel4, "update": update}
        assert sorted(name for name, p in products.items() if p is not None) == sorted(READABLE[damped])
        for name, first in READABLE[damped].items():
            w, rows = products[name]
            assert rows.start >= first, name
            # each product spans exactly the rows its weights touch
            w = np.atleast_2d(w)
            assert w.shape[1] == rows.stop - rows.start and np.any(w[:, 0]) and np.any(w[:, -1]), name
            # the A2 row is read by round 1's Galerkin call, and by the
            # update when g1 A_i weights a or adot
            reads_a2 = rows.stop == size and np.any(w[:, size - 2 - rows.start])
            assert not reads_a2 or (name == "update" and g1 != 0.0), name
        # round 1 needs no product: [A2; A1] is Z[-2:]; round 2 forms the
        # (2, m) block [A4; A3], and V3 when damped
        assert round2[0].shape[0] == (3 if damped else 2)
        # the update forms [adot'; A2'; a'] from every row: the new a never
        # reads stage 4, and the new adot does
        w, rows = update
        stage4 = (0, 1) if damped else (0,)
        assert w.shape[0] == 3 and rows == slice(0, size)
        assert all(w[2, r] == 0.0 for r in stage4) and w[0, stage4[-1]] != 0.0
        # adot' and a' weight adot and a by exactly 1, whatever g1 is, so
        # that no rounding of those weights repeats at every step
        assert w[0, size - 3] == 1.0 and w[2, size - 1] == 1.0
        assert np.any(w[[0, 2], size - 2]) == (g1 != 0.0)


def _perturbed_gap(monkeypatch, perturb) -> float:
    """Gap to the textbook loop of a stiff affine run, with and without ``perturb`` applied to the tableau."""
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 6)
    nl, fs = NL_CASES["cubic"], FS_CASES["affine"]
    a0, v0 = _initial_modal(op)
    args = (a0, v0, _stiff_dt(op), 35, 1, 1e12, False)
    want = _reference_run_numpy(*args, _reference_accel(op, nl, fs))
    assert _run_gap(kernels.run_numpy(*args, *_stepping_terms(op, nl, fs, 2)), want) <= AGREE_RTOL
    exact = kernels._rk4_tableau
    monkeypatch.setattr(kernels, "_rk4_tableau", lambda h, g1, damped: perturb(exact, h, g1, damped))
    return _run_gap(kernels.run_numpy(*args, *_stepping_terms(op, nl, fs, 2)), want)


def test_agreement_bound_catches_a_perturbed_k2_weight(monkeypatch):
    # The bound must be tight enough to see a wrong RK4 weight: scaling the
    # weight of n2 (row 6 of the damped Z) in the fused adot update by
    # 1 + 1e-9 has to break it.
    def perturb(exact, h, g1, damped):
        round2, vel2, vel4, (w, rows) = exact(h, g1, damped)
        assert damped
        w[0, 6 - rows.start] *= 1.0 + 1e-9
        return round2, vel2, vel4, (w, rows)

    assert _perturbed_gap(monkeypatch, perturb) > AGREE_RTOL


def test_agreement_bound_catches_a_perturbed_g1(monkeypatch):
    # g1 lives in the tableau only: scaling it there by 1 + 1e-9 has to
    # break the bound as well.
    def perturb(exact, h, g1, damped):
        assert g1 > 0.0
        return exact(h, g1 * (1.0 + 1e-9), damped)

    assert _perturbed_gap(monkeypatch, perturb) > AGREE_RTOL


@pytest.mark.parametrize("nl_name", list(NL_CASES))
def test_integrate_steps_every_kind_on_run_numpy(monkeypatch, op8, nl_name):
    # Every kind goes through the one numpy loop, looked up on the module at
    # call time so that a tracer patching kernels.run_numpy sees each run.
    nl = NL_CASES[nl_name]
    a0, v0 = _initial_modal(op8)
    cfg = SolverConfig(T=0.05, dt=1e-3, sample_stride=5)
    init = State(a=a0, adot=v0)
    fs = FS_CASES["affine"]
    plain = integrate(init, cfg, op8, nl, fs)
    calls = []
    inner = kernels.run_numpy

    def traced(*args):
        calls.append(args[7:])
        return inner(*args)

    monkeypatch.setattr(kernels, "run_numpy", traced)
    got = integrate(init, cfg, op8, nl, fs)
    assert len(calls) == 1
    assert plain.backend == got.backend == "numpy"
    assert not plain.diverged and plain.a.shape == (11, 8)
    assert np.array_equal(got.a, plain.a) and np.array_equal(got.adot, plain.adot)
    # the loop is handed _galerkin_term's term for RK4's blocks, the
    # forcing's linear part and its constant row
    galerkin, g1, damping, constant = calls[0]
    assert g1 == fs.g1 and np.array_equal(damping, fs.g2 / op8.sqrt_eigenvalues)
    assert np.array_equal(constant, fs.constant * constant_modal(op8))
    block = np.stack((a0, v0))
    got_n, want_n = np.empty((2, 8)), np.empty((2, 8))
    galerkin(block, got_n)
    _galerkin_term(op8, nl, 2)(block, want_n)
    assert np.array_equal(got_n, want_n)


# numpy functions that pass through the __array_function__ dispatcher
# (np.matmul, a gufunc, through its own machinery) on every call, where an
# array's bound method or a ufunc does the same work without it.
DISPATCHED = ("dot", "matmul", "copyto", "searchsorted", "take")


# Verlet takes no velocity-dependent forcing, so its affine case has g2 = 0.
DENSE_STEPPING = {
    "rk4-zero": ("rk4", FS_CASES["zero"]),
    "rk4-affine": ("rk4", FS_CASES["affine"]),
    "stormer_verlet-zero": (STORMER_VERLET, FS_CASES["zero"]),
    "stormer_verlet-affine": (STORMER_VERLET, affine_forcing(g1=0.1, g2=0.0, constant=0.2, g0=0.3)),
}


@pytest.mark.parametrize("case", list(DENSE_STEPPING))
@pytest.mark.parametrize("nl_name", ["cubic", "table"])
def test_dense_stepping_calls_no_dispatched_numpy_function(monkeypatch, op16, nl_name, case):
    # Integration on dense products pays numpy's fixed per-call cost at
    # every product, so every call in the step is a bound method or a ufunc.
    nl = NL_CASES[nl_name]
    integrator, fs = DENSE_STEPPING[case]
    a0, v0 = _initial_modal(op16)
    calls = dict.fromkeys(DISPATCHED, 0)

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return counted

    for name in DISPATCHED:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    np.dot(a0, v0)
    assert calls["dot"] == 1  # the patch is live
    calls["dot"] = 0
    traj = integrate(State(a=a0, adot=v0), SolverConfig(T=0.02, dt=1e-3, integrator=integrator), op16, nl, fs)
    assert not traj.diverged and len(traj) == 21
    assert calls == dict.fromkeys(DISPATCHED, 0)


@pytest.mark.parametrize("fs_name", list(FS_CASES))
@pytest.mark.parametrize("use_verlet", [False, True])
def test_each_round_calls_the_term_once_on_a_contiguous_block(op16, use_verlet, fs_name):
    # RK4 calls the Galerkin term twice a step, each time on a C-contiguous
    # (2, m) block, writing rows of the stage buffer that the step reads:
    # buffer 0 at odd steps and buffer 1 at even ones.  Verlet calls it once
    # a step, and once before the first, on a (1, m) block.  The term never
    # writes a constant row c.
    fs = _without_damping(FS_CASES[fs_name]) if use_verlet else FS_CASES[fs_name]
    rows = 1 if use_verlet else 2
    galerkin, g1, damping, constant = _stepping_terms(op16, NL_CASES["cubic"], fs, rows)
    c = np.zeros(16) if constant is None else constant
    shapes, outs = [], []

    def counted(block, out):
        assert block.flags.c_contiguous and out.flags.c_contiguous
        shapes.append((block.shape, out.shape))
        outs.append(out)
        z = out.base
        c_rows = z[2:3] if use_verlet else z[:, kernels._C]
        assert not np.shares_memory(out, c_rows) and all(np.array_equal(r, c) for r in c_rows)
        galerkin(block, out)

    n_steps = 9
    a0, v0 = _initial_modal(op16)
    assert kernels.run_numpy(a0, v0, 1e-3, n_steps, 3, 1e12, use_verlet, counted, g1, damping, constant)[3] == -1
    assert shapes == [((rows, 16), (rows, 16))] * (n_steps + 1 if use_verlet else 2 * n_steps)
    z = outs[0].base
    assert all(out.base is z for out in outs)
    if use_verlet:
        assert z.shape == (5, 16)
    else:
        assert z.shape == (2, 12 if damping is not None else 8, 16)
        for i, out in enumerate(outs):
            step = i // 2 + 1
            assert np.shares_memory(out, z[(step - 1) % 2]) and not np.shares_memory(out, z[step % 2])


def _both_loops(a0, v0, dt, n_steps, stride, ceiling, use_verlet, make_terms):
    """Both loops on fresh terms ``(galerkin, g1, damping)`` from ``make_terms``, checked to agree."""
    got = kernels.run_numpy(a0, v0, dt, n_steps, stride, ceiling, use_verlet, *make_terms())
    want = _reference_run_numpy(a0, v0, dt, n_steps, stride, ceiling, use_verlet, _textbook_value(*make_terms()))
    _assert_runs_agree(got, want)
    return got


@pytest.mark.parametrize("ceiling", [1e200, 1e300])
@pytest.mark.parametrize("use_verlet", [False, True])
def test_screen_passes_overflowing_squares_and_stops_at_the_ceiling(ceiling, use_verlet):
    # a'' = a grows by about e per step: from 1e150 the squares overflow
    # (q = inf fails the screen) long before |a| reaches the ceiling, and
    # (ceiling/2)**2 itself overflows a float.
    a0 = np.array([1e150, -3e149, 2e140])
    v0 = np.array([1e150, 0.0, -1e141])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hist, adot_hist, rec, div = _both_loops(a0, v0, 1.0, 1000, 1, ceiling, use_verlet, lambda: (_copy_a,))
    assert div > 0 and rec[-1] == div and list(rec) == list(range(div + 1))
    assert np.max(np.abs(a_hist[-1])) > ceiling and np.all(np.isfinite(a_hist[-1]))
    assert np.max(np.abs(a_hist[-2])) <= ceiling
    # the steps just below the ceiling had q = inf and were not stopped
    assert np.max(np.abs(a_hist[-2])) > 1e155


@pytest.mark.parametrize("use_verlet", [False, True])
def test_screen_stops_an_oscillator_at_the_first_step_past_the_ceiling(use_verlet):
    # a = 2 sin t: ||state||^2 = 4 exceeds the screen (1.5/2)^2 every step,
    # so the full check decides, and it must trip where |a| first passes 1.5.
    a0, v0 = np.array([0.0]), np.array([2.0])
    dt = 1e-3
    free = kernels.run_numpy(a0, v0, dt, 2000, 1, math.inf, use_verlet, _negate_a)
    first = int(np.argmax(np.abs(free[0][:, 0]) > 1.5))
    assert first > 0 and abs(first * dt - math.asin(0.75)) < 2 * dt
    a_hist, _, rec, div = _both_loops(a0, v0, dt, 2000, 10, 1.5, use_verlet, lambda: (_negate_a,))
    assert div == first and rec[-1] == first
    assert abs(a_hist[-1, 0]) > 1.5 and abs(a_hist[-2, 0]) <= 1.5


@pytest.mark.parametrize("g1", [0.0, 0.2])
@pytest.mark.parametrize("damped", [False, True])
def test_screen_catches_nan_in_adot_only(damped, g1):
    # NaN in one k4 reaches adot alone: a's update does not use k4.  The
    # term is a pure function of its block, NaN where a position's second
    # entry passes -0.4853.  That entry rises by about 0.3 h a step, and
    # the first stage past the threshold is step 5's stage 4, at t = 5h
    # (stages 2 and 3 of step 5 sit at 4.5h, below -0.4859).  The fused
    # update weights k4 by 0 in a's row, so this step retakes a' from the
    # step's start.
    def make_terms():
        def galerkin(a, out):
            np.negative(a, out=out)
            out[a[..., 1] > -0.4853] = np.nan

        return galerkin, g1, np.full(3, -0.1) if damped else None

    a0, v0 = np.array([1.0, -0.5, 0.25]), np.array([0.0, 0.3, 0.0])
    a_hist, adot_hist, rec, div = _both_loops(a0, v0, 1e-2, 100, 4, 1e12, False, make_terms)
    assert div == 5 and list(rec) == [0, 4, 5]
    assert np.all(np.isfinite(a_hist[-1])) and np.all(np.isnan(adot_hist[-1]))
    # step 5's A2 = a + h/2 adot is below the threshold, its new a above it
    assert a_hist[-2, 1] + 0.5e-2 * adot_hist[-2, 1] < -0.4853 < a_hist[-1, 1]


def test_tiny_ceiling_takes_the_full_check():
    # (ceiling/2)^2 underflows, so no screen can prove a state inside and
    # every step is checked in full: 1e-165 > 1e-170 must stop step 1.
    a0, v0 = np.array([1e-165, 0.0]), np.array([0.0, 0.0])
    _, _, rec, div = _both_loops(a0, v0, 1e-3, 10, 1, 1e-170, False, lambda: (_negate_a,))
    assert div == 1 and list(rec) == [0, 1]


SLOW_OSCILLATOR = {
    "rk4": (False, None),
    "rk4-damped": (False, np.full(1, -1e-3)),
    "stormer_verlet": (True, None),
}


@pytest.mark.parametrize("case", list(SLOW_OSCILLATOR))
def test_screen_stops_a_slow_oscillator_that_crosses_the_ceiling_and_returns(case):
    # a'' = -0.01 a from a = 0, adot = 0.2, dt = 0.49: |a| passes the
    # ceiling 1.5 at step 18, peaks near 2 and is back inside from step 47,
    # and at step 64 the whole state is far inside the screen.  A screen of
    # one state every so many steps would miss the crossing; the run must
    # stop at its first step.
    use_verlet, damping = SLOW_OSCILLATOR[case]

    def make_terms():
        return (lambda a, out: np.multiply(a, -0.01, out=out)), 0.0, damping

    a0, v0, dt, ceiling = np.array([0.0]), np.array([0.2]), 0.49, 1.5
    free = kernels.run_numpy(a0, v0, dt, 64, 1, math.inf, use_verlet, *make_terms())
    outside = np.flatnonzero(np.abs(free[0][:, 0]) > ceiling)
    assert free[3] == -1 and outside.size and outside[-1] - outside[0] < 64
    assert np.sum(free[0][-1] ** 2 + free[1][-1] ** 2) < (ceiling / 2) ** 2
    for stride in (1, 7, 64):
        a_hist, _, rec, div = _both_loops(a0, v0, dt, 64, stride, ceiling, use_verlet, make_terms)
        assert div == outside[0] and rec[-1] == div
        assert np.array_equal(a_hist, free[0][rec])


def _numpy_calls(run) -> int:
    """Numpy calls that ``run()`` makes: ufunc calls through the numpy
    namespace (patched to count) and calls of an array's bound method."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize(
    "case, per_step",
    [("rk4-zero", 11), ("rk4-affine", 17), ("stormer_verlet-zero", 11), ("stormer_verlet-affine", 11)],
)
def test_numpy_calls_per_step(monkeypatch, op16, case, per_step):
    # The cubic F on dense products makes 4 calls per Galerkin call.  An
    # undamped RK4 step adds round 2's product, the fused update and the
    # screen, a damped one also V2, V4 and the four e_i, and Verlet its two
    # kicks, their adds, the drift and the screen.
    integrator, fs = DENSE_STEPPING[case]
    use_verlet = integrator == STORMER_VERLET
    counts = {"ufunc": 0}

    class Counted:
        # a ufunc whose calls are counted; reduce and the rest pass through
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *args, **kwargs):
            counts["ufunc"] += 1
            return self.ufunc(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

    for name in ("add", "subtract", "multiply", "negative", "absolute", "power"):
        monkeypatch.setattr(np, name, Counted(getattr(np, name)))
    a0, v0 = _initial_modal(op16)

    def calls(n_steps):
        # the terms bind their ufuncs when built, so they are built here
        terms = _stepping_terms(op16, NL_CASES["cubic"], fs, 1 if use_verlet else 2)
        counts["ufunc"] = 0
        bound = _numpy_calls(lambda: kernels.run_numpy(a0, v0, 1e-3, n_steps, n_steps, 1e12, use_verlet, *terms))
        return bound + counts["ufunc"]

    assert calls(10) - calls(2) == 8 * per_step
    assert calls(11) - calls(10) == per_step
