"""The names the layered benchmark wraps must stay callable attributes of their modules."""

import importlib.util
import json
import sys
from pathlib import Path

from wavegalerkin import cli

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


def test_verify_of_a_builtin_config_records_both_verifier_spans(monkeypatch, tmp_path, capsys):
    # Decided checks run through the same two verifiers as drawn ones, so
    # the benchmark's verification layer sees them instead of cli.self_s.
    tracing = _tracing(monkeypatch)
    cfg = {
        "domain": {"length": 1.0, "bc": "dirichlet"},
        "modes": 8,
        "nonlinearity": {"kind": "cubic"},
        "forcing": {"kind": "affine", "g1": 0.1, "g2": 0.1},
        "initial": {"x0": {"type": "parabola"}, "x1": {"type": "zero"}},
        "time": {"T": 0.01, "dt": 1e-3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        assert cli.main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    names = [span.name for span in recorder.spans]
    assert names.count("cli.verify_conditions") == 1 and names.count("cli.verify_g") == 1
