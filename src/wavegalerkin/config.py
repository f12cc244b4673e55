"""Run-configuration parsing: JSON schema plus semantic validation.

A run config names the domain, mode count, nonlinearity, forcing, initial
data, time grid, and output paths.  The schema is checked in-package, by an
interpreter of the Draft 7 keywords :data:`CONFIG_SCHEMA` uses.  Schema
violations and any constructor rejection surface as :class:`ConfigError`,
which the CLI maps to its config-error exit code.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nonlinearity import ForcingSpec, NonlinearitySpec, TabulatedF
from .solver import (
    BLOWUP_CEILING_DEFAULT,
    RK4,
    STORMER_VERLET,
    ProjectedInitialData,
    SolverConfig,
    State,
    fit_modal,
    project_samples,
)
from .spectral import DIRICHLET, PERIODIC_MEAN_ZERO, DomainSpec, OperatorSpec

__all__ = ["CONFIG_SCHEMA", "ConfigError", "OutputSettings", "RunConfig", "load_config", "resolve_initial"]


class ConfigError(Exception):
    """Configuration rejected before any integration ran."""


_FIELD_SPEC = {
    "oneOf": [
        {
            "type": "object",
            "required": ["type", "coeffs"],
            "additionalProperties": False,
            "properties": {
                "type": {"const": "modal"},
                "coeffs": {"type": "array", "items": {"type": "number"}},
            },
        },
        {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {"type": {"const": "zero"}},
        },
        {
            "type": "object",
            "required": ["type"],
            "additionalProperties": False,
            "properties": {
                "type": {"const": "parabola"},
                "amplitude": {"type": "number"},
            },
        },
        {
            "type": "object",
            "required": ["type", "wavenumber"],
            "additionalProperties": False,
            "properties": {
                "type": {"const": "sine"},
                "wavenumber": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number"},
            },
        },
    ]
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "wavegalerkin run configuration",
    "type": "object",
    "required": ["domain", "modes", "nonlinearity", "forcing", "initial", "time"],
    "additionalProperties": False,
    "properties": {
        "domain": {
            "type": "object",
            "required": ["length", "bc"],
            "additionalProperties": False,
            "properties": {
                "length": {"type": "number", "exclusiveMinimum": 0},
                "bc": {"enum": [DIRICHLET, PERIODIC_MEAN_ZERO]},
                "grid_points": {"type": "integer", "minimum": 2},
            },
        },
        "modes": {"type": "integer", "minimum": 1},
        "nonlinearity": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["linear", "power_law", "cubic", "custom"]},
                "p": {"type": "number"},
                "a0": {"type": "number", "exclusiveMinimum": 0},
                "a1": {"type": "number", "minimum": 0},
                "b0": {"type": "number", "exclusiveMinimum": 0},
                "b1": {"type": "number", "minimum": 0},
                "table": {
                    "type": "object",
                    "required": ["r", "f"],
                    "additionalProperties": False,
                    "properties": {
                        "r": {"type": "array", "minItems": 2},
                        "f": {"type": "array", "minItems": 2},
                    },
                },
            },
        },
        "forcing": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "affine"]},
                "g0": {"type": "number", "minimum": 0},
                "g1": {"type": "number", "minimum": 0},
                "g2": {"type": "number", "minimum": 0},
                "constant": {"type": "number"},
            },
        },
        "initial": {
            "type": "object",
            "required": ["x0", "x1"],
            "additionalProperties": False,
            "properties": {"x0": _FIELD_SPEC, "x1": _FIELD_SPEC},
        },
        "time": {
            "type": "object",
            "required": ["T", "dt"],
            "additionalProperties": False,
            "properties": {
                "T": {"type": "number", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "integrator": {"enum": ["rk4", "stormer_verlet"]},
                "sample_stride": {"type": "integer", "minimum": 1},
            },
        },
        "verification": {
            "description": "Accepted and ignored: every condition is decided, with no draws.",
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv_path": {"type": "string"},
                "report_path": {"type": "string"},
            },
        },
        "seed": {"description": "Accepted and ignored: nothing is drawn.", "type": "integer", "minimum": 0},
        "blowup_ceiling": {"type": "number", "exclusiveMinimum": 0},
    },
}


def _is_number(v) -> bool:
    # json.loads yields exact types; a bool is not a number in JSON Schema.
    return type(v) is int or type(v) is float


_TYPES = {
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
    "number": _is_number,
    # Draft 7 counts an integer-valued float, such as 2.0, as an integer.
    "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality of scalars: ``True`` is not ``1``, but ``1.0`` is ``1``."""
    if type(a) is bool or type(b) is bool:
        return type(a) is type(b) and a == b
    return a == b


def _type(name, value, path, schema):
    if not _TYPES[name](value):
        return path, f"{value!r} is not of type {name!r}"


def _enum(options, value, path, schema):
    if not any(_equal(value, option) for option in options):
        return path, f"{value!r} is not one of {options!r}"


def _const(const, value, path, schema):
    if not _equal(value, const):
        return path, f"{const!r} was expected"


def _required(names, value, path, schema):
    if type(value) is dict:
        for name in names:
            if name not in value:
                return path, f"{name!r} is a required property"


def _properties(props, value, path, schema):
    if type(value) is dict:
        for name, sub in props.items():
            if name in value:
                found = schema_violation(value[name], sub, path + (name,))
                if found is not None:
                    return found


def _additional_properties(allowed, value, path, schema):
    # The schema only ever forbids extras outright.
    if allowed is False and type(value) is dict:
        known = schema.get("properties", {})
        extras = sorted((k for k in value if k not in known), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            return path, f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"


def _items(sub, value, path, schema):
    if type(value) is list:
        for i, item in enumerate(value):
            found = schema_violation(item, sub, path + (i,))
            if found is not None:
                return found


def _min_items(n, value, path, schema):
    if type(value) is list and len(value) < n:
        return path, f"{value!r} {'should be non-empty' if n == 1 else 'is too short'}"


# NaN compares false either way, so it passes both bounds, as in jsonschema;
# the constructors refuse it.
def _minimum(bound, value, path, schema):
    if _is_number(value) and value < bound:
        return path, f"{value!r} is less than the minimum of {bound!r}"


def _exclusive_minimum(bound, value, path, schema):
    if _is_number(value) and value <= bound:
        return path, f"{value!r} is less than or equal to the minimum of {bound!r}"


def _selects(branch: dict, value) -> bool:
    """Whether ``value`` holds every ``const`` property of a ``oneOf`` branch, as a tagged union's tag."""
    consts = [(name, sub["const"]) for name, sub in branch.get("properties", {}).items() if "const" in sub]
    return bool(consts) and type(value) is dict and all(name in value and _equal(value[name], c) for name, c in consts)


def _one_of(branches, value, path, schema):
    found = [schema_violation(value, branch, path) for branch in branches]
    valid = [branch for branch, f in zip(branches, found) if f is None]
    if len(valid) == 1:
        return None
    if valid:  # jsonschema names the first valid branch last
        return path, f"{value!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
    # The branch whose tag the value carries says what is wrong with it.
    tagged = [f for branch, f in zip(branches, found) if _selects(branch, value)]
    if len(tagged) == 1:
        return tagged[0]
    return path, f"{value!r} is not valid under any of the given schemas"


KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "const": _const,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "oneOf": _one_of,
}


def schema_violation(value, schema: dict = CONFIG_SCHEMA, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first Draft 7 violation of ``schema`` by ``value``, as ``(path, message)``, or None.

    Keywords are checked in the schema's order, so a node's own ``type``,
    ``required`` and ``additionalProperties`` come before its properties.
    Only the keywords in :data:`KEYWORDS` act (the schema uses no others);
    messages follow jsonschema's wording.  Table entries carry no per-item
    schema: :func:`_finite_values` checks them with numpy, because walking
    2001-entry arrays item by item would dominate a load.
    """
    for keyword, arg in schema.items():
        check = KEYWORDS.get(keyword)
        if check is not None:
            found = check(arg, value, path, schema)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class OutputSettings:
    csv_path: str = "trajectory.csv"
    report_path: str = "report.json"


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully validated run description, ready to execute."""

    domain: DomainSpec
    modes: int
    nl: NonlinearitySpec
    fs: ForcingSpec
    x0_spec: dict
    x1_spec: dict
    solver: SolverConfig
    output: OutputSettings


# The keys each nonlinearity kind requires, and takes no others, and the
# fixed p of a built-in kind.  A kind names its numbers: ``linear`` and
# ``cubic`` are the power law at p = 2 and p = 4, with its own constants, so
# a stated one would be silently dropped.
_NONLINEARITY_KINDS = {
    "linear": ((), 2.0),
    "cubic": ((), 4.0),
    "power_law": (("p",), None),
    "custom": (("p", "a0", "a1", "b0", "b1", "table"), None),
}


def _build_nonlinearity(section: dict) -> NonlinearitySpec:
    kind = section["kind"]
    keys, p = _NONLINEARITY_KINDS[kind]
    for key in section:
        if key != "kind" and key not in keys:
            raise ConfigError(f"kind {kind!r} takes no nonlinearity/{key}")
    for key in keys:
        if key not in section:
            raise ConfigError(f"kind {kind!r} requires nonlinearity/{key}")
    if kind != "custom":
        return NonlinearitySpec(p=section.get("p", p))
    table = section["table"]
    r = _finite_values(table["r"], "table", "nonlinearity/table/r")
    fv = _finite_values(table["f"], "table", "nonlinearity/table/f")
    if r.size != fv.size:
        raise ConfigError(f"invalid table at nonlinearity/table: r has {r.size} entries and f has {fv.size}")
    step = np.flatnonzero(np.diff(r) <= 0)
    if step.size:
        i = int(step[0]) + 1
        prev, here = table["r"][i - 1], table["r"][i]
        raise ConfigError(f"invalid table at nonlinearity/table/r/{i}: {here!r} does not exceed the previous entry {prev!r}")
    constants = {k: section[k] for k in keys if k != "table"}
    return NonlinearitySpec(**constants, table=TabulatedF(r, fv))


def _finite_values(values: list, what: str, where: str) -> np.ndarray:
    """A JSON number list as floats; a non-number or non-finite entry names its JSON path.

    Python's ``json`` reads ``Infinity`` and ``NaN``, and an integer literal
    may lie beyond the float range; each is rejected here as invalid
    ``what`` at ``where``.
    """
    if not set(map(type, values)) <= {int, float}:
        i, v = next((i, v) for i, v in enumerate(values) if type(v) not in (int, float))
        raise ConfigError(f"config schema violation at {where}/{i}: {v!r} is not of type 'number'")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        arr = np.array([v if abs(v) <= sys.float_info.max else math.inf for v in values], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"invalid {what} at {where}/{i}: {values[i]!r} is not a finite number")
    return arr


def _build_forcing(section: dict) -> ForcingSpec:
    """The forcing a section states; ``zero`` names the affine g whose constants are all 0.

    ``||g(0, 0)||_H`` depends on the interval, so a nonzero ``constant``
    needs its bound ``g0`` stated, not defaulted to 0.
    """
    constants = {k: v for k, v in section.items() if k != "kind"}
    if section["kind"] == "zero":
        if any(constants.values()):
            raise ConfigError("zero forcing takes no constants")
        return ForcingSpec()
    if constants.get("constant", 0.0) != 0.0 and "g0" not in constants:
        raise ConfigError("g0 must be given explicitly when constant != 0")
    return ForcingSpec(**constants)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    found = schema_violation(raw)
    if found is not None:
        path, message = found
        raise ConfigError(f"config schema violation at {'/'.join(map(str, path)) or '<root>'}: {message}")

    try:
        dom = raw["domain"]
        domain = DomainSpec(
            length=dom["length"],
            bc=dom["bc"],
            grid_points=dom.get("grid_points"),
        )
        nl = _build_nonlinearity(raw["nonlinearity"])
        fs = _build_forcing(raw["forcing"])
        time_sec = raw["time"]
        solver = SolverConfig(
            T=time_sec["T"],
            dt=time_sec["dt"],
            integrator=time_sec.get("integrator", RK4),
            sample_stride=time_sec.get("sample_stride", 1),
            blowup_ceiling=raw.get("blowup_ceiling", BLOWUP_CEILING_DEFAULT),
        )
        if solver.integrator == STORMER_VERLET and fs.velocity_dependent:
            raise ConfigError("stormer_verlet requires velocity-independent forcing (g2 = 0)")
        for key in ("x0", "x1"):
            _check_field(raw["initial"][key], f"initial/{key}")
        _check_history([solver], [raw["modes"]])
    except ConfigError:
        raise
    except (ValueError, KeyError) as e:
        raise ConfigError(str(e)) from e

    # The schema limits the output section to the settings' own fields,
    # whose defaults live on the dataclass.
    return RunConfig(
        domain=domain,
        modes=raw["modes"],
        nl=nl,
        fs=fs,
        x0_spec=raw["initial"]["x0"],
        x1_spec=raw["initial"]["x1"],
        solver=solver,
        output=OutputSettings(**raw.get("output", {})),
    )


# The largest sample history a run may hold: (n_steps // stride + 2)
# records of positions and velocities, float64.  A run's peak memory is its
# history plus the energy columns (a few float64 per sample) and one block
# of rows, so the budget bounds the run's memory too.  1 GiB is 400x the
# largest benchmark history (dense_output, about 2.5 MB); a config past it
# would fail to allocate, or swap, only after verification had run.
HISTORY_BYTES_MAX = 2**30


def _check_history(solvers: list[SolverConfig], modes: list[int]) -> None:
    """Reject the sample histories of a run on each time grid at each mode count, held at once, past :data:`HISTORY_BYTES_MAX`."""
    nbytes = sum((s.n_steps // s.sample_stride + 2) * 2 * m * 8 for s in solvers for m in modes)
    if nbytes > HISTORY_BYTES_MAX:
        raise ConfigError(
            f"sample history of {nbytes:.3g} bytes exceeds the {HISTORY_BYTES_MAX:.3g}-byte budget: "
            "raise time/sample_stride or shorten time/T"
        )


# A sine field's largest phase is below 2*pi*k; up to this wavenumber it
# stays within the float range.
MAX_WAVENUMBER = sys.float_info.max / 8.0


def _check_field(spec: dict, where: str) -> None:
    """Reject a non-finite amplitude or modal coefficient, or a float-overflowing wavenumber, of an initial field."""
    if spec["type"] == "modal":
        _finite_values(spec["coeffs"], "initial data", f"{where}/coeffs")
        return
    amplitude = spec.get("amplitude", 1.0)
    if not abs(amplitude) <= sys.float_info.max:  # also false for NaN
        raise ConfigError(f"invalid initial data at {where}/amplitude: {amplitude!r} is not a finite number")
    # Python compares an int with a float exactly, so 10**400 needs no conversion here.
    if spec["type"] == "sine" and not spec["wavenumber"] <= MAX_WAVENUMBER:
        raise ConfigError(f"invalid initial data at {where}/wavenumber: it exceeds {MAX_WAVENUMBER:.6g}, past which its phase overflows a float")


def _field_samples(spec: dict, op: OperatorSpec) -> np.ndarray:
    l = op.domain.length
    xi = op.nodes
    kind = spec["type"]
    if kind == "parabola":
        return spec.get("amplitude", 1.0) * xi * (l - xi)
    if kind == "sine":
        k = spec["wavenumber"]
        if op.domain.bc == DIRICHLET:
            return spec.get("amplitude", 1.0) * np.sin(k * math.pi * xi / l)
        return spec.get("amplitude", 1.0) * np.sin(2.0 * k * math.pi * xi / l)
    raise ConfigError(f"field type {kind!r} is not sampled")


def _resolve_field(spec: dict, op: OperatorSpec) -> tuple[np.ndarray, float]:
    kind = spec["type"]
    if kind == "zero":
        return np.zeros(op.modes), 0.0
    if kind == "modal":
        return fit_modal(spec["coeffs"], op)
    return project_samples(_field_samples(spec, op), op)


def resolve_initial(rc: RunConfig, op: OperatorSpec) -> ProjectedInitialData:
    """Build the initial state on a concrete operator, with tail report.

    Modal and zero specs go straight to coefficients; sampled function
    specs are evaluated on the quadrature grid and projected.  Tail norms
    report the L2 mass the retained modes cannot represent.
    """
    a, tail0 = _resolve_field(rc.x0_spec, op)
    adot, tail1 = _resolve_field(rc.x1_spec, op)
    return ProjectedInitialData(state=State(a=a, adot=adot, t=0.0), x0_tail_norm=tail0, x1_tail_norm=tail1)
