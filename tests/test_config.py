"""JSON run-config parsing, schema enforcement, and initial-data resolution."""

import copy
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import wavegalerkin
from wavegalerkin.config import CONFIG_SCHEMA, KEYWORDS, ConfigError, OutputSettings, load_config, resolve_initial, schema_violation
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
    assert rc.output.csv_path == "trajectory.csv"
    assert rc.output.report_path == "report.json"
    assert rc.output == OutputSettings()


def test_verification_samples_and_seed_are_accepted_and_ignored(tmp_path):
    # Nothing is drawn any more; configs that still set the keys load as before.
    plain = load_config(write_cfg(tmp_path, base_config(), "plain.json"))
    keyed = load_config(write_cfg(tmp_path, base_config(verification={"samples": 300}, seed=11), "keyed.json"))
    assert keyed.solver == plain.solver and keyed.output == plain.output
    assert not hasattr(keyed, "seed") and not hasattr(keyed, "verify_samples")
    for bad in (dict(verification={"samples": 0}), dict(seed=-1), dict(verification={"draws": 1})):
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_cfg(tmp_path, base_config(**bad), "bad.json"))


def test_schema_has_no_monitors_section():
    # The problem alone picks the checks, their tolerances and the decay
    # bound, and a run goes ahead only when verification passed: no config
    # key can change a verdict.
    props = CONFIG_SCHEMA["properties"]
    assert "monitors" not in props
    assert set(props["verification"]["properties"]) == {"samples"}
    assert "ignored" in props["verification"]["description"] and "ignored" in props["seed"]["description"]
    assert "allow_poincare_violation" not in props["domain"]["properties"]


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
    assert rc.nl.table(np.array([0.5]))[0] == pytest.approx(1.5)


def test_nonlinearity_keys_are_named_when_missing(tmp_path):
    custom = {"kind": "custom", "p": 3.0, "a0": 1.0, "a1": 1.0, "b0": 0.5, "b1": 0.0}
    for section, key in (({"kind": "power_law"}, "p"), (custom, "table")):
        with pytest.raises(ConfigError, match=f"kind '{section['kind']}' requires nonlinearity/{key}$"):
            load_config(write_cfg(tmp_path, base_config(nonlinearity=section)))


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
    # load_config's interpreter takes the schema as given and never checks
    # it against the Draft 7 metaschema, so a broken schema must be caught here.
    jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)


# Keywords that only annotate a schema; they constrain nothing.
ANNOTATIONS = {"$schema", "title", "description"}


def _schema_nodes(schema):
    yield schema
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        yield from _schema_nodes(sub)


def test_schema_uses_only_keywords_the_interpreter_implements():
    # A keyword the interpreter does not know would be skipped, and the
    # constraint it states would silently not hold.
    for node in _schema_nodes(CONFIG_SCHEMA):
        unknown = set(node) - set(KEYWORDS) - ANNOTATIONS
        assert not unknown, (unknown, node)
        # The argument forms the interpreter handles.
        assert isinstance(node.get("type", ""), str)
        assert node.get("additionalProperties", False) is False
        assert isinstance(node.get("items", {}), dict)
        for value in [node.get("const"), *node.get("enum", [])]:
            assert value is None or type(value) in (str, int, float, bool)


def full_config():
    """A config that sets every section and optional key, with a custom table F."""
    return base_config(
        domain={"length": 2.0, "bc": "periodic_mean_zero", "grid_points": 64},
        nonlinearity={
            "kind": "custom",
            "p": 3.0,
            "a0": 1.0,
            "a1": 1.0,
            "b0": 0.5,
            "b1": 0.0,
            "table": {"r": [-1.0, 0.0, 1.0], "f": [-3.0, 0.0, 3]},
        },
        forcing={"kind": "affine", "g0": 0.5, "g1": 0.1, "g2": 0.2, "constant": 0.1},
        initial={"x0": {"type": "sine", "wavenumber": 2, "amplitude": 0.5}, "x1": {"type": "modal", "coeffs": [0.1, -0.2]}},
        time={"T": 0.1, "dt": 1e-3, "integrator": "rk4", "sample_stride": 10},
        verification={"samples": 10},
        output={"csv_path": "t.csv", "report_path": "r.json"},
        seed=3,
        blowup_ceiling=1e6,
    )


def verlet_config():
    return base_config(
        forcing={"kind": "affine", "g0": 0.5, "g1": 0.1},
        initial={"x0": {"type": "parabola", "amplitude": 2}, "x1": {"type": "zero"}},
        time={"T": 1.0, "dt": 1e-3, "integrator": "stormer_verlet"},
    )


# Values a mutant puts in place of any node: nulls, bools (never numbers),
# NaN and infinities (which pass minimum), integer-valued floats (which are
# integers), strings, lists and objects.
REPLACEMENTS = [None, True, False, 0, 1, -1, 2, 0.0, 2.0, -1.0, 0.5, math.nan, math.inf, -math.inf, "x", "sine", "rk4", [], [1.0], [True], {}, {"type": "zero"}]
# Keys a mutant adds to an object: one no section knows, and some that only another section or field type takes.
ADDED = {"extra": 1, "amplitude": 1.0, "wavenumber": 2, "coeffs": [1.0], "p": 3.0, "g2": 0.1, "type": "zero"}


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _nodes(sub, path + (i,))


def _mutated(cfg, path, op, arg=None):
    out = copy.deepcopy(cfg)
    if not path:
        return arg
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = arg
    return out


def _mutations(cfg):
    """Every single mutation of ``cfg``, as ``(path, op, arg)`` for :func:`_mutated`."""
    for path, value in list(_nodes(cfg)):
        if path:
            yield path, "drop", None
        for new in REPLACEMENTS:
            yield path, "set", new
        if type(value) is int:
            yield path, "set", float(value)
        if type(value) is float and value.is_integer():
            yield path, "set", int(value)
        if isinstance(value, dict):
            for key, new in ADDED.items():
                if key not in value:
                    yield path + (key,), "set", new


def _mutants():
    rng = random.Random(26)
    for cfg in (base_config(), full_config(), verlet_config()):
        assert schema_violation(cfg) is None
        singles = [_mutated(cfg, *m) for m in _mutations(cfg)]
        yield from singles
        # Two mutations at once, the second at a random node of the first's result.
        for first in rng.sample(singles, 200):
            if isinstance(first, dict):
                yield _mutated(first, *rng.choice(list(_mutations(first))))


def test_interpreter_agrees_with_jsonschema_on_every_mutant():
    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    counts = {True: 0, False: 0}
    for mutant in _mutants():
        found = schema_violation(mutant)
        errors = list(validator.iter_errors(mutant))
        assert (found is None) == (not errors), (mutant, found, [e.message for e in errors])
        counts[found is None] += 1
        # Where jsonschema sees one violation, outside a oneOf, both say the same thing at the same place.
        if len(errors) == 1 and errors[0].validator != "oneOf":
            assert found == (tuple(errors[0].absolute_path), errors[0].message)
    # Both verdicts are well represented.
    assert counts[True] > 100 and counts[False] > 1000, counts


# Keyword cases the config schema cannot reach: non-string enum and const
# values, and a oneOf whose branches overlap.
KEYWORD_CASES = [
    ({"enum": [1]}, True),
    ({"enum": [1]}, 1.0),
    ({"enum": [True]}, 1),
    ({"enum": [False]}, False),
    ({"const": 0}, False),
    ({"const": 0}, 0.0),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 0.5),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, "x"),
]


@pytest.mark.parametrize("schema, value", KEYWORD_CASES)
def test_keywords_agree_with_jsonschema_beyond_the_config_schema(schema, value):
    expected = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(value))
    found = schema_violation(value, schema)
    assert (found is None) == (expected is None), found
    if expected is not None:
        assert found == ((), expected.message)


@pytest.mark.parametrize(
    "field, where, message",
    [
        ({"type": "sine"}, "initial/x0", "'wavenumber' is a required property"),
        ({"type": "sine", "wavenumber": 0}, "initial/x0/wavenumber", "0 is less than the minimum of 1"),
        ({"type": "sine", "wavenumber": 1.5}, "initial/x0/wavenumber", "1.5 is not of type 'integer'"),
        ({"type": "modal", "coeffs": [1.0, "x"]}, "initial/x0/coeffs/1", "'x' is not of type 'number'"),
        ({"type": "zero", "amplitude": 1.0}, "initial/x0", "Additional properties are not allowed ('amplitude' was unexpected)"),
        ({"type": "blob"}, "initial/x0", "{'type': 'blob'} is not valid under any of the given schemas"),
        ({"wavenumber": 2}, "initial/x0", "{'wavenumber': 2} is not valid under any of the given schemas"),
    ],
)
def test_initial_field_errors_name_the_tagged_field_type(tmp_path, field, where, message):
    # An initial field is one of four tagged types: an error in a known type
    # is reported by that type's own schema, at its own path; a value no tag
    # selects gets the generic oneOf message.
    cfg = base_config(initial={"x0": field, "x1": {"type": "zero"}})
    with pytest.raises(ConfigError) as e:
        load_config(write_cfg(tmp_path, cfg))
    assert str(e.value) == f"config schema violation at {where}: {message}"


def test_draft7_number_semantics(tmp_path):
    # An integer-valued float is an integer, a bool is no number, and NaN
    # passes minimum and exclusiveMinimum, to be refused by the constructors.
    sine = base_config(initial={"x0": {"type": "sine", "wavenumber": 2.0}, "x1": {"type": "zero"}})
    assert load_config(write_cfg(tmp_path, sine)).x0_spec["wavenumber"] == 2.0
    for over, where, message in (
        (dict(modes=True), "modes", "True is not of type 'integer'"),
        (dict(time={"T": 1.0, "dt": False}), "time/dt", "False is not of type 'number'"),
        (dict(domain={"length": 1.0, "bc": True}), "domain/bc", "True is not one of ['dirichlet', 'periodic_mean_zero']"),
        (dict(initial={"x0": {"type": 1}, "x1": {"type": "zero"}}), "initial/x0", "{'type': 1} is not valid under any of the given schemas"),
    ):
        with pytest.raises(ConfigError) as e:
            load_config(write_cfg(tmp_path, base_config(**over)))
        assert str(e.value) == f"config schema violation at {where}: {message}"
    assert schema_violation(base_config(time={"T": 1.0, "dt": math.nan})) is None
    with pytest.raises(ConfigError, match="^dt must be a finite number$"):
        load_config(write_cfg(tmp_path, base_config(time={"T": 1.0, "dt": math.nan})))


def test_cli_import_leaves_jsonschema_out():
    # The schema is checked in-package; jsonschema is a test-only dependency.
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    code = "import sys, wavegalerkin.cli; assert 'jsonschema' not in sys.modules, 'jsonschema was imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src_dir, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
    assert np.allclose(rc.nl.table.F(u), [1.5 + 3.0, 0.375, 0.09375, 1.5 + 3.0], rtol=1e-14)
    assert np.allclose(rc.nl.table.Phi(u), [-3.5, -0.0625, 0.0078125, 3.5], rtol=1e-14)
