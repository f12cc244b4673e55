"""The names the layered benchmark wraps must stay callable attributes of their modules."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("layerbench_tracing", ROOT / "layerbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_is_a_callable_attribute(monkeypatch):
    # `--trace` and `--self-test` patch these names in place; dropping or
    # renaming one in the program breaks the benchmark, so it fails here.
    targets = _tracing(monkeypatch).layer_targets()
    assert targets
    for module, attr, span in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"
