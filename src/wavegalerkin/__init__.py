"""Spectral Galerkin solver for second-order wave equations with monotone
nonlinearities, plus runtime verifiers for the structural conditions and
the a-priori energy and decay bounds.  The root exports what a library
caller needs to build, integrate and check a problem; the rest stays in
its submodule."""

from .estimates import decay_bound, derive_decay, derive_gronwall, monitor
from .nonlinearity import (
    affine_forcing,
    cubic_nonlinearity,
    custom_lipschitz_forcing,
    custom_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    verify_conditions,
    verify_g,
    zero_forcing,
)
from .solver import SolverConfig, integrate, project_initial_data
from .spectral import DomainSpec, build_operator

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "SolverConfig",
    "affine_forcing",
    "build_operator",
    "cubic_nonlinearity",
    "custom_lipschitz_forcing",
    "custom_nonlinearity",
    "decay_bound",
    "derive_decay",
    "derive_gronwall",
    "integrate",
    "linear_nonlinearity",
    "monitor",
    "power_law_nonlinearity",
    "project_initial_data",
    "tabulated_f",
    "verify_conditions",
    "verify_g",
    "zero_forcing",
]
