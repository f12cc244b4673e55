"""Shared fixtures: a clean environment and a few prebuilt operators."""

import pytest

from wavegalerkin.spectral import DIRICHLET, DomainSpec, build_operator


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Output re-rooting reads this at call time; tests that exercise it set
    # their own value through monkeypatch.
    monkeypatch.delenv("WAVEGALERKIN_OUTPUT_DIR", raising=False)


@pytest.fixture(scope="session")
def op8():
    return build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 8)


@pytest.fixture(scope="session")
def op16():
    return build_operator(DomainSpec(length=1.0, bc=DIRICHLET), 16)
