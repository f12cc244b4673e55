"""JSON run-config parsing, schema enforcement, and initial-data resolution."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wavegalerkin.config import CONFIG_SCHEMA, ConfigError, load_config, resolve_initial
from wavegalerkin.spectral import build_operator


def base_config(**over):
    cfg = {
        "domain": {"length": 1.0, "bc": "dirichlet"},
        "modes": 8,
        "nonlinearity": {"kind": "cubic"},
        "forcing": {"kind": "zero"},
        "initial": {"x0": {"type": "parabola"}, "x1": {"type": "zero"}},
        "time": {"T": 1.0, "dt": 1e-3},
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_load_valid_config_defaults(tmp_path):
    rc = load_config(write_cfg(tmp_path, base_config()))
    assert rc.modes == 8
    assert rc.nl.kind == "cubic" and rc.fs.kind == "zero"
    assert rc.solver.T == 1.0 and rc.solver.sample_stride == 1
    assert rc.verify_samples == 200 and rc.verify_override is False
    assert rc.output.csv_path == "trajectory.csv"
    assert rc.output.report_path == "report.json"
    assert rc.seed == 0
    assert rc.monitors.enabled_checks == ("energy_identity", "gronwall", "conservation", "decay")
    assert rc.monitors.tolerances.envelope_rel == 1e-9


def test_monitor_toggles_and_tolerances(tmp_path):
    cfg = base_config(monitors={"gronwall": False, "decay": False, "k": 3.0, "delta": 0.01, "tolerances": {"conservation_rel": 1e-8}})
    rc = load_config(write_cfg(tmp_path, cfg))
    assert rc.monitors.enabled_checks == ("energy_identity", "conservation")
    assert rc.monitors.k == 3.0 and rc.monitors.delta == 0.01
    assert rc.monitors.tolerances.conservation_rel == 1e-8
    assert rc.monitors.tolerances.identity_scale == 1e-6


def test_schema_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(ConfigError, match="schema violation"):
        load_config(write_cfg(tmp_path, base_config(extra=1)))
    bad_field = base_config(initial={"x0": {"type": "blob"}, "x1": {"type": "zero"}})
    with pytest.raises(ConfigError, match="schema violation"):
        load_config(write_cfg(tmp_path, bad_field))
    missing = base_config()
    del missing["time"]
    with pytest.raises(ConfigError, match="schema violation"):
        load_config(write_cfg(tmp_path, missing))
    with pytest.raises(ConfigError, match="schema violation"):
        load_config(write_cfg(tmp_path, base_config(modes=0)))


def test_semantic_errors_become_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, base_config(time={"T": 1.0, "dt": 0.3})))
    with pytest.raises(ConfigError, match="zero forcing"):
        load_config(write_cfg(tmp_path, base_config(forcing={"kind": "zero", "g1": 0.1})))
    with pytest.raises(ConfigError, match="power_law"):
        load_config(write_cfg(tmp_path, base_config(nonlinearity={"kind": "power_law"})))
    with pytest.raises(ConfigError, match="custom"):
        load_config(write_cfg(tmp_path, base_config(nonlinearity={"kind": "custom", "p": 3.0})))
    with pytest.raises(ConfigError, match="g0"):
        load_config(write_cfg(tmp_path, base_config(forcing={"kind": "affine", "constant": 0.5})))


def test_unreadable_or_invalid_json(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(broken)


def test_custom_nonlinearity_from_table(tmp_path):
    cfg = base_config(
        nonlinearity={
            "kind": "custom",
            "p": 3.0,
            "a0": 1.0,
            "a1": 1.0,
            "b0": 0.5,
            "b1": 0.0,
            "table": {"r": [-1.0, 1.0], "f": [-3.0, 3.0]},
        }
    )
    rc = load_config(write_cfg(tmp_path, cfg))
    assert rc.nl.kind == "custom"
    assert rc.nl.f(np.array([0.5]))[0] == pytest.approx(1.5)


def test_resolve_initial_parabola_and_modal(tmp_path):
    rc = load_config(write_cfg(tmp_path, base_config()))
    op = build_operator(rc.domain, rc.modes)
    init = resolve_initial(rc, op)
    k = np.arange(1, 9)
    closed = np.where(k % 2 == 1, 4.0 * math.sqrt(2.0) / (k * math.pi) ** 3, 0.0)
    assert np.allclose(init.state.a, closed, atol=2e-5)
    assert 1e-4 < init.x0_tail_norm < 1e-3
    assert init.x1_tail_norm == 0.0

    modal = base_config(initial={"x0": {"type": "modal", "coeffs": [0.1] * 10}, "x1": {"type": "zero"}})
    rc2 = load_config(write_cfg(tmp_path, modal, "m.json"))
    init2 = resolve_initial(rc2, op)
    assert np.all(init2.state.a == 0.1)
    assert init2.x0_tail_norm == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-12)


def test_resolve_initial_sine(tmp_path):
    cfg = base_config(initial={"x0": {"type": "sine", "wavenumber": 2, "amplitude": 1.5}, "x1": {"type": "zero"}})
    rc = load_config(write_cfg(tmp_path, cfg))
    op = build_operator(rc.domain, rc.modes)
    init = resolve_initial(rc, op)
    want = np.zeros(8)
    want[1] = 1.5 / math.sqrt(2.0)
    assert np.allclose(init.state.a, want, atol=1e-12)
    assert init.x0_tail_norm <= 1e-7


def test_published_schema_in_sync():
    published = Path(__file__).resolve().parents[1] / "docs" / "config.schema.json"
    assert json.loads(published.read_text()) == CONFIG_SCHEMA


def test_config_schema_is_valid_draft7():
    # load_config's prebuilt validator never checks the schema itself, so a
    # broken schema must be caught here.
    jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)


def test_custom_table_carries_exact_primitives(tmp_path):
    cfg = base_config(
        nonlinearity={
            "kind": "custom",
            "p": 3.0,
            "a0": 1.0,
            "a1": 1.0,
            "b0": 0.5,
            "b1": 0.0,
            "table": {"r": [-1, 0.5, 1.0], "f": [-3.0, 1.5, 3]},
        }
    )
    rc = load_config(write_cfg(tmp_path, cfg))
    u = np.array([-2.0, -0.5, 0.25, 2.0])
    # f = 3r on the table, clamped outside it
    assert np.allclose(rc.nl.F(u), [1.5 + 3.0, 0.375, 0.09375, 1.5 + 3.0], rtol=1e-14)
    assert np.allclose(rc.nl.Phi(u), [-3.5, -0.0625, 0.0078125, 3.5], rtol=1e-14)
