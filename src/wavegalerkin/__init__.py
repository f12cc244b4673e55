"""Spectral Galerkin solver for second-order wave equations with monotone
nonlinearities, plus runtime verifiers for the structural conditions and
the a-priori energy and decay bounds.  The root exports what a library
caller needs to build, integrate and check a problem; the rest stays in
its submodule.  A problem is stated by its numbers: a
:class:`NonlinearitySpec` (with a :class:`TabulatedF` for a tabulated
``f``) and a :class:`ForcingSpec`."""

from .estimates import decay_bound, derive_decay, derive_gronwall, monitor
from .nonlinearity import ForcingSpec, NonlinearitySpec, TabulatedF, verify_conditions, verify_g
from .solver import SolverConfig, integrate, project_initial_data
from .spectral import DomainSpec, build_operator

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "ForcingSpec",
    "NonlinearitySpec",
    "SolverConfig",
    "TabulatedF",
    "build_operator",
    "decay_bound",
    "derive_decay",
    "derive_gronwall",
    "integrate",
    "monitor",
    "project_initial_data",
    "verify_conditions",
    "verify_g",
]
