"""Backend selection and agreement between the compiled and numpy loops."""

import math
import warnings

import numpy as np
import pytest

from wavegalerkin import kernels
from wavegalerkin.nonlinearity import (
    AFFINE,
    CUBIC,
    LINEAR,
    POWER_LAW,
    ZERO,
    F_on_grid,
    affine_forcing,
    constant_modal,
    cubic_nonlinearity,
    custom_lipschitz_forcing,
    custom_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    zero_forcing,
)
from wavegalerkin.solver import STORMER_VERLET, SolverConfig, State, _numpy_accel, integrate, project_initial_data
from wavegalerkin.spectral import (
    DIRICHLET,
    FFT_MIN_MODES,
    PERIODIC_MEAN_ZERO,
    DomainSpec,
    build_operator,
    transform_pair,
)


def _small_problem(modes=6, seed=0):
    op = build_operator(DomainSpec(length=1.0, bc=DIRICHLET), modes)
    rng = np.random.default_rng(seed)
    a0 = 0.2 * rng.uniform(-1.0, 1.0, size=modes)
    v0 = 0.2 * rng.uniform(-1.0, 1.0, size=modes)
    return op, State(a=a0, adot=v0)


def _both_backends(monkeypatch, init, cfg, op, nl, fs):
    monkeypatch.delenv(kernels.ENV_NO_NUMBA, raising=False)
    fast = integrate(init, cfg, op, nl, fs)
    monkeypatch.setenv(kernels.ENV_NO_NUMBA, "1")
    slow = integrate(init, cfg, op, nl, fs)
    assert fast.backend == "numba" and slow.backend == "numpy"
    return fast, slow


def _default_backend():
    return "numba" if kernels.NUMBA_AVAILABLE else "numpy"


def test_backend_env_flag(monkeypatch):
    assert not kernels.numba_disabled_by_env()
    assert kernels.backend_name() == _default_backend()
    for val in ("1", "true", "YES", " on "):
        monkeypatch.setenv(kernels.ENV_NO_NUMBA, val)
        assert kernels.numba_disabled_by_env()
        assert kernels.backend_name() == "numpy"
    for val in ("0", ""):
        monkeypatch.setenv(kernels.ENV_NO_NUMBA, val)
        assert not kernels.numba_disabled_by_env()
        assert kernels.backend_name() == _default_backend()


def test_backend_env_flag_overrides_available_numba(monkeypatch, compiled_branch):
    assert kernels.backend_name() == "numba"
    monkeypatch.setenv(kernels.ENV_NO_NUMBA, "1")
    assert kernels.backend_name() == "numpy"
    monkeypatch.setenv(kernels.ENV_NO_NUMBA, "0")
    assert kernels.backend_name() == "numba"


BUILTIN_CASES = [
    (cubic_nonlinearity(), affine_forcing(g1=0.1, g2=0.05, constant=0.2, g0=0.3), 1e-12),
    (power_law_nonlinearity(3.5), zero_forcing(), 1e-10),
]


@pytest.mark.parametrize("nl,fs,tol", BUILTIN_CASES)
def test_compiled_and_numpy_paths_agree(monkeypatch, compiled_branch, nl, fs, tol):
    op, init = _small_problem()
    fast, slow = _both_backends(monkeypatch, init, SolverConfig(T=0.2, dt=1e-3), op, nl, fs)
    assert np.max(np.abs(fast.a - slow.a)) <= tol
    assert np.max(np.abs(fast.adot - slow.adot)) <= tol


def test_paths_agree_under_verlet(monkeypatch, compiled_branch):
    op, init = _small_problem(seed=1)
    cfg = SolverConfig(T=0.2, dt=1e-3, integrator=STORMER_VERLET)
    fast, slow = _both_backends(monkeypatch, init, cfg, op, cubic_nonlinearity(), zero_forcing())
    assert np.max(np.abs(fast.a - slow.a)) <= 1e-12
    assert np.max(np.abs(fast.adot - slow.adot)) <= 1e-12
    # At m=512 the numpy path steps on the FFT pair, the compiled one on the
    # dense products.
    m = 512
    assert m >= FFT_MIN_MODES
    cfg = SolverConfig(T=0.025, dt=2.5e-4, integrator=STORMER_VERLET)
    for bc in (DIRICHLET, PERIODIC_MEAN_ZERO):
        op = build_operator(DomainSpec(length=1.0, bc=bc), m)
        x = op.nodes
        u0 = x * (1.0 - x) if bc == DIRICHLET else 0.8 * np.sin(2.0 * math.pi * x)
        init = project_initial_data(u0, 0.3 * np.sin(2.0 * math.pi * x), op).state
        fast, slow = _both_backends(monkeypatch, init, cfg, op, power_law_nonlinearity(4.0), zero_forcing())
        for want, got in ((fast.a, slow.a), (fast.adot, slow.adot)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_numba_is_default_backend_for_builtin_kinds():
    pytest.importorskip("numba")
    assert kernels.NUMBA_AVAILABLE
    assert kernels.backend_name() == "numba"
    op, init = _small_problem()
    for nl, fs, _ in BUILTIN_CASES:
        assert integrate(init, SolverConfig(T=0.2, dt=1e-3), op, nl, fs).backend == "numba"


def test_run_numpy_stride_and_divergence():
    # a'' = a grows like e^t and must trip the ceiling near t = ln(5)
    def accel(a, adot):
        return a.copy()

    a0 = np.array([1.0])
    v0 = np.array([1.0])
    a_hist, adot_hist, rec, div = kernels.run_numpy(a0, v0, 1e-3, 2000, 10, 5.0, False, accel)
    assert div > 0
    assert rec[0] == 0 and rec[-1] == div
    assert np.all(np.diff(rec) > 0)
    assert abs(a_hist[-1, 0]) > 5.0
    assert abs(div * 1e-3 - np.log(5.0)) < 0.05

    a_hist, _, rec, div = kernels.run_numpy(a0, v0, 1e-3, 100, 10, 1e12, False, accel)
    assert div == -1
    assert list(rec) == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert a_hist.shape == (11, 1)

    # a'' = a^3 from 1e120 overflows in the first step: divergence, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hist, _, rec, div = kernels.run_numpy(np.array([1e120]), v0, 1e-3, 100, 10, 1e300, False, lambda a, _: a**3)
    assert div == 1 and list(rec) == [0, 1]
    assert not np.isfinite(a_hist[-1, 0])


# The stepping loop and acceleration closure as they were before the
# in-place rewrite: one new array per operation and the kind dispatch in
# the call.  The rewrite promises the same trajectory bit for bit.
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
    sample, project = transform_pair(op)
    gc = fs.constant * constant_modal(op) if fs.kind == AFFINE and fs.constant != 0.0 else None
    pm2 = nl.p - 2.0

    def accel(a, adot):
        if nl.kind == LINEAR:
            out = -(lam * a)
        else:
            u = sample(a)
            if nl.kind == CUBIC:
                w = u * u * u
            elif nl.kind == POWER_LAW:
                w = np.abs(u) ** pm2 * u
            else:
                w = F_on_grid(nl, u)
            out = -(lam * project(w))
        if fs.kind == ZERO:
            return out
        if fs.kind == AFFINE:
            extra = fs.g1 * a + (fs.g2 * adot) / sqrt_lam
            if gc is not None:
                extra = extra + gc
            return out + extra
        vg = sample(adot / sqrt_lam)
        return out + project(np.asarray(fs.func(sample(a), vg), dtype=np.float64))

    return accel


def _assert_runs_identical(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape
        # equal_nan only matters for the terminal row of a diverged run
        assert np.array_equal(g, w, equal_nan=True)
    assert got[3] == want[3]


_R = np.linspace(-3.0, 3.0, 41)
_TABLE = tabulated_f(_R, _R**3 + 2.0 * _R)

NL_CASES = {
    "cubic": cubic_nonlinearity(),
    "power_law": power_law_nonlinearity(3.5),
    "linear": linear_nonlinearity(),
    "table": custom_nonlinearity(f=_TABLE, p=4.0, a0=1.0, a1=2.0, b0=0.1, b1=0.0, F=_TABLE.F, Phi=_TABLE.Phi),
    "callable": custom_nonlinearity(f=lambda u: 3.0 * u * u + 1.0, p=4.0, a0=1.0, a1=1.0, b0=1.0, b1=0.0),
}
FS_CASES = {
    "zero": zero_forcing(),
    "affine": affine_forcing(g1=0.1, g2=0.05, constant=0.2, g0=0.3),
    "affine_no_constant": affine_forcing(g1=0.2, g2=0.07),
    "custom": custom_lipschitz_forcing(lambda u, v: 0.1 * np.sin(u) - 0.05 * v, g0=0.0, g1=0.1, g2=0.05),
}


def _initial_modal(op):
    # Every mode carries weight, so the top modes' stage terms, which are
    # comparable to the state there, move the trajectory when a coefficient
    # moves by one ulp.  Grid values stay O(0.3) and the run stays stable.
    rng = np.random.default_rng(op.modes)
    scale = 0.3 / math.sqrt(op.modes)
    return scale * rng.normal(size=op.modes), scale * op.sqrt_eigenvalues * rng.normal(size=op.modes)


@pytest.fixture(scope="module", params=[(DIRICHLET, 6), (DIRICHLET, 512), (PERIODIC_MEAN_ZERO, 512)], ids=lambda p: f"{p[0]}-{p[1]}")
def stepping_op(request):
    bc, m = request.param
    return build_operator(DomainSpec(length=1.0, bc=bc), m)


@pytest.mark.parametrize("fs_name", list(FS_CASES))
@pytest.mark.parametrize("nl_name", list(NL_CASES))
def test_run_numpy_is_bitwise_the_reference_loop(stepping_op, nl_name, fs_name):
    op, nl, fs = stepping_op, NL_CASES[nl_name], FS_CASES[fs_name]
    a0, v0 = _initial_modal(op)
    # dt*sqrt(lambda_max) = 0.4: every stage term is large enough that a
    # one-ulp change in any coefficient shows in the trajectory.
    dt = 0.4 / float(np.max(op.sqrt_eigenvalues))
    for use_verlet in (False, True):
        for stride in (1, 7):
            args = (a0, v0, dt, 35, stride, 1e12, use_verlet)
            got = kernels.run_numpy(*args, _numpy_accel(op, nl, fs))
            want = _reference_run_numpy(*args, _reference_accel(op, nl, fs))
            assert got[3] == -1 and list(got[2]) == list(range(0, 36, stride))
            _assert_runs_identical(got, want)
    # the inputs are not written to
    assert all(np.array_equal(x, y) for x, y in zip((a0, v0), _initial_modal(op)))


def _both_loops(a0, v0, dt, n_steps, stride, ceiling, use_verlet, make_accel):
    got = kernels.run_numpy(a0, v0, dt, n_steps, stride, ceiling, use_verlet, make_accel())
    want = _reference_run_numpy(a0, v0, dt, n_steps, stride, ceiling, use_verlet, make_accel())
    _assert_runs_identical(got, want)
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
        a_hist, adot_hist, rec, div = _both_loops(a0, v0, 1.0, 1000, 1, ceiling, use_verlet, lambda: lambda a, _: a.copy())
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
    free = kernels.run_numpy(a0, v0, dt, 2000, 1, math.inf, use_verlet, lambda a, _: -a)
    first = int(np.argmax(np.abs(free[0][:, 0]) > 1.5))
    assert first > 0 and abs(first * dt - math.asin(0.75)) < 2 * dt
    a_hist, _, rec, div = _both_loops(a0, v0, dt, 2000, 10, 1.5, use_verlet, lambda: lambda a, _: -a)
    assert div == first and rec[-1] == first
    assert abs(a_hist[-1, 0]) > 1.5 and abs(a_hist[-2, 0]) <= 1.5


def test_screen_catches_nan_in_adot_only():
    # NaN on one k4 call reaches adot alone: a's update does not use k4.
    def make_accel():
        calls = [0]

        def accel(a, adot):
            calls[0] += 1
            out = -a - 0.1 * adot
            return np.full_like(out, np.nan) if calls[0] == 4 * 5 else out

        return accel

    a0, v0 = np.array([1.0, -0.5, 0.25]), np.array([0.0, 0.3, 0.0])
    a_hist, adot_hist, rec, div = _both_loops(a0, v0, 1e-2, 100, 4, 1e12, False, make_accel)
    assert div == 5 and list(rec) == [0, 4, 5]
    assert np.all(np.isfinite(a_hist[-1])) and np.all(np.isnan(adot_hist[-1]))


def test_tiny_ceiling_takes_the_full_check():
    # (ceiling/2)^2 underflows, so no screen can prove a state inside and
    # every step is checked in full: 1e-165 > 1e-170 must stop step 1.
    a0, v0 = np.array([1e-165, 0.0]), np.array([0.0, 0.0])
    _, _, rec, div = _both_loops(a0, v0, 1e-3, 10, 1, 1e-170, False, lambda: lambda a, _: -a)
    assert div == 1 and list(rec) == [0, 1]
