"""Backend selection and agreement between the compiled and numpy loops."""

import math
import warnings

import numpy as np
import pytest

from wavegalerkin import kernels
from wavegalerkin.nonlinearity import affine_forcing, cubic_nonlinearity, power_law_nonlinearity, zero_forcing
from wavegalerkin.solver import STORMER_VERLET, SolverConfig, State, integrate, project_initial_data
from wavegalerkin.spectral import DIRICHLET, FFT_MIN_MODES, PERIODIC_MEAN_ZERO, DomainSpec, build_operator


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
