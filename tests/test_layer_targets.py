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


def _write_cfg(tmp_path, forcing):
    """A small cubic Dirichlet config with the given forcing, its outputs under ``tmp_path``."""
    cfg = {
        "domain": {"length": 1.0, "bc": "dirichlet"},
        "modes": 8,
        "nonlinearity": {"kind": "cubic"},
        "forcing": forcing,
        "initial": {"x0": {"type": "parabola"}, "x1": {"type": "zero"}},
        "time": {"T": 0.01, "dt": 1e-3},
        "output": {"csv_path": str(tmp_path / "trajectory.csv"), "report_path": str(tmp_path / "report.json")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


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
    path = _write_cfg(tmp_path, {"kind": "affine", "g1": 0.1, "g2": 0.1})
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        assert cli.main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    names = [span.name for span in recorder.spans]
    assert names.count("cli.verify_conditions") == 1 and names.count("cli.verify_g") == 1


def test_a_traced_run_records_each_layer_span_once(monkeypatch, tmp_path, capsys):
    # The benchmark's per-layer times add up to the run only if every layer
    # target fires, once: a layer that moves or is dropped shows here.
    tracing = _tracing(monkeypatch)
    path = _write_cfg(tmp_path, {"kind": "zero"})
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        assert cli.main(["run", str(path)]) == 0
    capsys.readouterr()
    names = sorted(span.name for span in recorder.spans)
    targets = tracing.layer_targets()
    assert len(targets) == 12
    assert names == sorted(name for _, _, name in targets)
