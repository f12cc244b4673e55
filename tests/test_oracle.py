"""Closed-form and high-resolution references used to check the solver."""

import math

import numpy as np
import pytest

from wavegalerkin.nonlinearity import ForcingSpec, NonlinearitySpec
from wavegalerkin.oracle import (
    BERNOULLI,
    GRONWALL_LINEAR,
    linear_exact,
    max_H_error,
    reference_run,
    scalar_comparison,
)
from wavegalerkin.solver import SolverConfig, State, fit_modal, integrate
from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator

PI2 = math.pi ** 2


def test_linear_exact_values():
    a, adot = linear_exact(1, PI2, 1.0, 0.0, 1.0)
    assert a == pytest.approx(-1.0, abs=1e-12)
    assert adot == pytest.approx(0.0, abs=1e-12)
    a, adot = linear_exact(1, PI2, 0.0, 1.0, 0.5)
    assert a == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert adot == pytest.approx(0.0, abs=1e-12)
    t = np.array([0.0, 0.25, 0.5])
    a, adot = linear_exact(1, PI2, 1.0, 0.0, t)
    assert np.allclose(a, np.cos(math.pi * t), atol=1e-14)
    with pytest.raises(ValueError):
        linear_exact(1, 0.0, 1.0, 0.0, 1.0)


def test_linear_exact_wronskian_is_one():
    lam = 7.3
    for t in (0.0, 0.4, 2.7, 11.0):
        a1, v1 = linear_exact(1, lam, 1.0, 0.0, t)
        a2, v2 = linear_exact(1, lam, 0.0, 1.0, t)
        assert a1 * v2 - a2 * v1 == pytest.approx(1.0, rel=1e-12)


def test_linear_exact_satisfies_equation():
    lam = PI2
    h = 1e-4
    for t in (0.3, 1.7):
        am, _ = linear_exact(1, lam, 0.8, 0.5, t - h)
        a0, v0 = linear_exact(1, lam, 0.8, 0.5, t)
        ap, _ = linear_exact(1, lam, 0.8, 0.5, t + h)
        second = (ap - 2.0 * a0 + am) / (h * h)
        assert abs(second + lam * a0) <= 1e-6
        # first derivative consistency as well
        assert (ap - am) / (2.0 * h) == pytest.approx(v0, abs=1e-6)


def test_reference_run_matches_closed_form():
    dom = DomainSpec(length=1.0, bc=DIRICHLET)
    ref = reference_run(dom, NonlinearitySpec(p=2), ForcingSpec(), [1.0], [], T=1.0, m_ref=4, dt_ref=1e-4, sample_stride=100)
    assert ref.backend == "oracle"
    t = ref.times
    assert np.max(np.abs(ref.a[:, 0] - np.cos(math.pi * t))) <= 1e-10
    assert np.max(np.abs(ref.a[:, 1:])) <= 1e-14


def test_reference_and_production_agree_at_same_resolution():
    dom = DomainSpec(length=1.0, bc=DIRICHLET)
    x0 = [0.2, 0.0, 0.05]
    ref = reference_run(dom, NonlinearitySpec(p=4), ForcingSpec(), x0, [], T=1.0, m_ref=8, dt_ref=1e-3)
    op = build_operator(dom, 8)
    init = State(a=fit_modal(x0, op)[0], adot=np.zeros(op.modes))
    traj = integrate(init, SolverConfig(T=1.0, dt=1e-3), op, NonlinearitySpec(p=4), ForcingSpec())
    assert max_H_error(traj, ref) <= 1e-12


def test_max_H_error_counts_reference_tail():
    dom = DomainSpec(length=1.0, bc=DIRICHLET)
    x0 = [0.3]
    ref = reference_run(dom, NonlinearitySpec(p=4), ForcingSpec(), x0, [], T=0.5, m_ref=16, dt_ref=1e-3)
    op = build_operator(dom, 8)
    init = State(a=fit_modal(x0, op)[0], adot=np.zeros(op.modes))
    traj = integrate(init, SolverConfig(T=0.5, dt=1e-3), op, NonlinearitySpec(p=4), ForcingSpec())
    err = max_H_error(traj, ref)
    tail = float(np.max(np.sqrt(np.sum(ref.a[:, 8:] ** 2, axis=1))))
    assert err >= tail > 0.0


def test_max_H_error_requires_aligned_times():
    dom = DomainSpec(length=1.0, bc=DIRICHLET)
    nl, fs = NonlinearitySpec(p=2), ForcingSpec()
    ref = reference_run(dom, nl, fs, [1.0], [], T=1.0, m_ref=2, dt_ref=0.2)
    op = build_operator(dom, 2)
    init = State(a=fit_modal([1.0], op)[0], adot=np.zeros(op.modes))
    traj = integrate(init, SolverConfig(T=1.0, dt=0.25), op, nl, fs)
    with pytest.raises(ValueError, match="times"):
        max_H_error(traj, ref)
    with pytest.raises(ValueError, match="modes"):
        ref_small = reference_run(dom, nl, fs, [1.0], [], T=1.0, m_ref=2, dt_ref=0.25)
        op4 = build_operator(dom, 4)
        init4 = State(a=fit_modal([1.0], op4)[0], adot=np.zeros(op4.modes))
        traj4 = integrate(init4, SolverConfig(T=1.0, dt=0.25), op4, nl, fs)
        max_H_error(traj4, ref_small)


def test_scalar_comparison_gronwall_matches_closed_form():
    t = np.linspace(0.0, 1.0, 6)
    dense = scalar_comparison(GRONWALL_LINEAR, {"C0": 0.7, "C1": 0.3, "z0": 2.0}, t)
    closed = np.exp(0.7 * t) * 2.0 + (0.3 / 0.7) * (np.exp(0.7 * t) - 1.0)
    assert np.allclose(dense, closed, rtol=1e-9)
    flat = scalar_comparison(GRONWALL_LINEAR, {"C0": 0.0, "C1": 0.3, "z0": 2.0}, t)
    assert np.allclose(flat, 2.0 + 0.3 * t, rtol=1e-12)


def test_scalar_comparison_bernoulli_matches_closed_form():
    t = np.linspace(0.0, 2.0, 5)
    delta, r, w0 = 0.05, 2.0, 6.0
    dense = scalar_comparison(BERNOULLI, {"delta": delta, "r": r, "w0": w0}, t)
    damp = np.exp(-(r - 1.0) * t)
    closed = w0 * (damp + delta * w0 ** (r - 1.0) * (1.0 - damp)) ** (-1.0 / (r - 1.0))
    assert np.allclose(dense, closed, rtol=1e-9)
    # delta = 0 degenerates to pure exponential growth
    free = scalar_comparison(BERNOULLI, {"delta": 0.0, "r": 2.0, "w0": 1.5}, t)
    assert np.allclose(free, 1.5 * np.exp(t), rtol=1e-9)


def test_scalar_comparison_broadcasting_and_validation():
    t = np.array([0.0, 0.5, 1.0])
    out = scalar_comparison(GRONWALL_LINEAR, {"C0": np.array([0.0, 1.0, 2.0]), "C1": 0.0, "z0": 1.0}, t)
    assert out.shape == (3, 3)
    assert np.allclose(out[:, 0], 1.0)
    assert np.allclose(out[-1], np.exp([0.0, 1.0, 2.0]), rtol=1e-9)
    with pytest.raises(ValueError):
        scalar_comparison("riccati", {"C0": 1.0}, t)
    with pytest.raises(ValueError):
        scalar_comparison(GRONWALL_LINEAR, {"C0": 0.0, "C1": 0.0, "z0": 1.0}, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        scalar_comparison(GRONWALL_LINEAR, {"C0": 0.0, "C1": 0.0, "z0": 1.0}, np.array([-1.0, 0.5]))
