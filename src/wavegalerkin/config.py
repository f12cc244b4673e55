"""Run-configuration parsing: JSON schema plus semantic validation.

A run config names the domain, mode count, nonlinearity, forcing, initial
data, time grid, monitor settings, and output paths.  Schema violations
and any constructor rejection surface as :class:`ConfigError`, which the
CLI maps to its config-error exit code.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .estimates import MonitorTolerances
from .nonlinearity import (
    ForcingSpec,
    NonlinearitySpec,
    affine_forcing,
    cubic_nonlinearity,
    custom_nonlinearity,
    linear_nonlinearity,
    power_law_nonlinearity,
    tabulated_f,
    zero_forcing,
)
from .solver import (
    BLOWUP_CEILING_DEFAULT,
    RK4,
    ProjectedInitialData,
    SolverConfig,
    State,
    fit_modal,
    project_samples,
)
from .spectral import DIRICHLET, PERIODIC_MEAN_ZERO, DomainSpec, OperatorSpec

__all__ = ["CONFIG_SCHEMA", "ConfigError", "MonitorSettings", "OutputSettings", "RunConfig", "load_config", "resolve_initial"]


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
                "allow_poincare_violation": {"type": "boolean"},
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
        "monitors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "energy_identity": {"type": "boolean"},
                "gronwall": {"type": "boolean"},
                "conservation": {"type": "boolean"},
                "decay": {"type": "boolean"},
                "k": {"type": "number", "exclusiveMinimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "tolerances": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "identity_scale": {"type": "number", "exclusiveMinimum": 0},
                        "envelope_rel": {"type": "number", "exclusiveMinimum": 0},
                        "conservation_rel": {"type": "number", "exclusiveMinimum": 0},
                        "decay_rel": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "verification": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": {"type": "integer", "minimum": 1},
                "override": {"type": "boolean"},
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
        "seed": {"type": "integer", "minimum": 0},
        "blowup_ceiling": {"type": "number", "exclusiveMinimum": 0},
    },
}


# Built once: jsonschema.validate would re-check the schema itself on every
# load.  Table entries carry no per-item schema; _table_values checks them
# with numpy, because walking 2001-entry arrays item by item dominates a load.
_VALIDATOR = jsonschema.Draft7Validator(CONFIG_SCHEMA)


@dataclass(frozen=True)
class MonitorSettings:
    """Which monitors to run and the decay parameters' knobs."""

    energy_identity: bool = True
    gronwall: bool = True
    conservation: bool = True
    decay: bool = True
    k: float = 2.0
    delta: float | None = None
    tolerances: MonitorTolerances = field(default_factory=MonitorTolerances)

    @property
    def enabled_checks(self) -> tuple[str, ...]:
        out = []
        if self.energy_identity:
            out.append("energy_identity")
        if self.gronwall:
            out.append("gronwall")
        if self.conservation:
            out.append("conservation")
        if self.decay:
            out.append("decay")
        return tuple(out)


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
    monitors: MonitorSettings
    verify_samples: int
    verify_override: bool
    output: OutputSettings
    seed: int
    raw: dict


def _build_nonlinearity(section: dict) -> NonlinearitySpec:
    kind = section["kind"]
    if kind == "linear":
        return linear_nonlinearity()
    if kind == "cubic":
        return cubic_nonlinearity()
    if kind == "power_law":
        if "p" not in section:
            raise ConfigError("nonlinearity.p is required for kind 'power_law'")
        return power_law_nonlinearity(section["p"])
    missing = [k for k in ("p", "a0", "a1", "b0", "b1", "table") if k not in section]
    if missing:
        raise ConfigError(f"custom nonlinearity requires {missing}")
    table = section["table"]
    r = _table_values(table["r"], "r")
    fv = _table_values(table["f"], "f")
    if r.size != fv.size:
        raise ConfigError(f"invalid table at nonlinearity/table: r has {r.size} entries and f has {fv.size}")
    step = np.flatnonzero(np.diff(r) <= 0)
    if step.size:
        i = int(step[0]) + 1
        prev, here = table["r"][i - 1], table["r"][i]
        raise ConfigError(f"invalid table at nonlinearity/table/r/{i}: {here!r} does not exceed the previous entry {prev!r}")
    f = tabulated_f(r, fv)
    return custom_nonlinearity(
        f=f,
        p=section["p"],
        a0=section["a0"],
        a1=section["a1"],
        b0=section["b0"],
        b1=section["b1"],
        F=f.F,
        Phi=f.Phi,
    )


def _table_values(values: list, key: str) -> np.ndarray:
    """A table column as floats; a non-number or non-finite entry names its JSON path."""
    where = f"nonlinearity/table/{key}"
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
        raise ConfigError(f"invalid table at {where}/{i}: {values[i]!r} is not a finite number")
    return arr


def _build_forcing(section: dict) -> ForcingSpec:
    if section["kind"] == "zero":
        extras = [k for k in ("g0", "g1", "g2", "constant") if section.get(k)]
        if extras:
            raise ConfigError(f"zero forcing takes no constants, got {extras}")
        return zero_forcing()
    constant = section.get("constant", 0.0)
    g0 = section.get("g0")
    if g0 is None:
        if constant != 0.0:
            raise ConfigError("forcing.g0 is required when constant != 0")
        g0 = 0.0
    return affine_forcing(
        g1=section.get("g1", 0.0),
        g2=section.get("g2", 0.0),
        constant=constant,
        g0=g0,
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if e is not None:
        where = "/".join(str(x) for x in e.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {where}: {e.message}") from e

    try:
        dom = raw["domain"]
        domain = DomainSpec(
            length=dom["length"],
            bc=dom["bc"],
            grid_points=dom.get("grid_points"),
            allow_poincare_violation=dom.get("allow_poincare_violation", False),
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
    except ConfigError:
        raise
    except (ValueError, KeyError) as e:
        raise ConfigError(str(e)) from e

    mon = raw.get("monitors", {})
    tol = mon.get("tolerances", {})
    monitors = MonitorSettings(
        energy_identity=mon.get("energy_identity", True),
        gronwall=mon.get("gronwall", True),
        conservation=mon.get("conservation", True),
        decay=mon.get("decay", True),
        k=mon.get("k", 2.0),
        delta=mon.get("delta"),
        tolerances=MonitorTolerances(
            identity_scale=tol.get("identity_scale", 1e-6),
            envelope_rel=tol.get("envelope_rel", 1e-9),
            conservation_rel=tol.get("conservation_rel", 1e-6),
            decay_rel=tol.get("decay_rel", 1e-9),
        ),
    )
    ver = raw.get("verification", {})
    out = raw.get("output", {})
    return RunConfig(
        domain=domain,
        modes=raw["modes"],
        nl=nl,
        fs=fs,
        x0_spec=raw["initial"]["x0"],
        x1_spec=raw["initial"]["x1"],
        solver=solver,
        monitors=monitors,
        verify_samples=ver.get("samples", 200),
        verify_override=ver.get("override", False),
        output=OutputSettings(
            csv_path=out.get("csv_path", "trajectory.csv"),
            report_path=out.get("report_path", "report.json"),
        ),
        seed=raw.get("seed", 0),
        raw=raw,
    )


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
