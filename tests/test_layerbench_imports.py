"""Every name the layered benchmark imports from the package, or reads on an imported package module, must resolve.

The benchmark runs on the package as it is, so a trim of the public
surface that drops one of these names breaks it while every other test
stays green.  The files are parsed, not imported: importing them would
pull in the benchmark's own machinery.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERBENCH = Path(__file__).resolve().parent.parent / "layerbench"
PACKAGE = "wavegalerkin"


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _references(path: Path) -> set[str]:
    """Dotted names ``module.attr`` that a file imports from the package or reads on a package module it imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: dict[str, str] = {}  # local name -> imported package module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``a.b``
                    modules[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == PACKAGE:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                refs.add(name)
                if _is_module(name):
                    modules[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add(f"{modules[node.value.id]}.{node.attr}")
    return refs


def _all_references() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted(LAYERBENCH.glob("*.py")):
        for ref in _references(path):
            found.setdefault(ref, set()).add(path.name)
    return found


def _resolves(ref: str) -> bool:
    module, _, attr = ref.rpartition(".")
    return hasattr(importlib.import_module(module), attr)


REFERENCES = _all_references()


def test_the_pinned_names_are_found():
    # the parse sees what the benchmark reads, so an empty pass cannot hide a gap
    assert {
        "wavegalerkin.oracle.reference_run",
        "wavegalerkin.cli.ENV_OUTPUT_DIR",
        "wavegalerkin.cli.main",
        "wavegalerkin.kernels.NUMBA_AVAILABLE",
        "wavegalerkin.spectral.SpectralField",
        "wavegalerkin.spectral.to_grid",
        "wavegalerkin.spectral.from_grid",
        "wavegalerkin.nonlinearity.F_on_grid",
        "wavegalerkin.config.load_config",
    } <= set(REFERENCES)


@pytest.mark.parametrize("ref", sorted(REFERENCES))
def test_each_name_the_benchmark_reads_resolves(ref):
    assert _resolves(ref), f"{ref}, read in layerbench/{', layerbench/'.join(sorted(REFERENCES[ref]))}"
