"""Seeded generators for the benchmark's workloads.

Each workload is a list of ``wavegalerkin run`` configurations, written as
JSON files; the program under test receives only those files.  The seed
picks amplitudes, forcing constants, exponents, domain lengths, verifier
seeds and the order of runs.  It never picks what sets the amount of work
(mode count, step count, sample stride, verification draws), so every seed
costs the same and run-to-run spread measures the machine, not the draw.

Every configuration states conditions that hold in exact arithmetic:
built-in kinds carry their exact constants, affine forcing gets
``g0 = |constant| * sqrt(length)`` (the L2 norm of the constant), and the
tabulated custom ``f`` carries constants derived below from its table.
An exit of 1 or 2 on any of them is therefore a finding about the
program, which the benchmark reports as ``violation_ratio``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic_mean_zero"

# Mirrors ``wavegalerkin.nonlinearity.AMPLITUDE_MAX``: verifier draws have
# coefficients in [-1, 1] scaled by amplitudes up to this value.  A custom
# table must cover every grid value such a draw can reach, or the
# clamped f would falsify coercivity outside the table.
VERIFY_AMPLITUDE_MAX = 10.0
TABLE_ENTRIES = 2001

# Share of each workload's time that is interpreter-bound rather than
# memory-bound; it picks the machine-speed reference that scales its times
# (see speed.py).  short_mix: the traced run puts about 0.65 of a pass in
# jsonschema, the stepping loop and output, and the rest in large-array
# verifier table lookups.  dense_output: its histories and CSV text outgrow
# L2, and on five seeds a share of 0.5 halved the spread that 1.0 gave.
INTERPRETER_SHARE = {"long_small": 1.0, "wide_modes": 0.0, "dense_output": 0.5, "short_mix": 0.65}


@dataclass(frozen=True)
class RunSpec:
    """One generated configuration plus what the benchmark knows about it."""

    name: str
    config: dict
    n_steps: int
    grid_points: int

    @property
    def modes(self) -> int:
        return self.config["modes"]

    @property
    def rk4(self) -> bool:
        return self.config["time"].get("integrator", "rk4") == "rk4"

    @property
    def accel_evals(self) -> int:
        """Acceleration evaluations the stepping loop makes, computed."""
        return 4 * self.n_steps if self.rk4 else self.n_steps + 1

    @property
    def builtin(self) -> bool:
        return self.config["nonlinearity"]["kind"] != "custom"


def grid_points(modes: int, bc: str) -> int:
    """Default quadrature grid size, as the program picks it."""
    return 2 * modes + 1 if bc == DIRICHLET else 4 * ((modes + 1) // 2) + 1


def _num(x: float, digits: int = 6) -> float:
    # Round drawn constants so the JSON text is short and stable.
    return float(f"{x:.{digits}g}")


def _spec(name: str, cfg: dict) -> RunSpec:
    t = cfg["time"]
    n_steps = int(round(t["T"] / t["dt"]))
    return RunSpec(name, cfg, n_steps, grid_points(cfg["modes"], cfg["domain"]["bc"]))


def _outputs(name: str) -> dict:
    # Relative paths; the benchmark re-roots them with WAVEGALERKIN_OUTPUT_DIR.
    return {"csv_path": f"out/{name}.csv", "report_path": f"out/{name}.report.json"}


def _affine(rng: np.random.Generator, length: float, g1_hi: float, g2_hi: float, g2: bool) -> dict:
    constant = _num(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
    # The L2 norm of the constant, nudged up so rounding cannot undercut it.
    g0 = _num(abs(constant) * math.sqrt(length) * (1.0 + 1e-6), 9)
    return {
        "kind": "affine",
        "g0": g0,
        "g1": _num(rng.uniform(0.2, 1.0) * g1_hi),
        "g2": _num(rng.uniform(0.2, 1.0) * g2_hi) if g2 else 0.0,
        "constant": constant,
    }


def custom_table(modes: int, length: float) -> dict:
    """Tabulated f(r) = 3 r^2 (the cubic's derivative) with exact constants.

    The table spans every grid value a verifier draw can reach, so f is never
    clamped there.  Piecewise-linear interpolation of 3 r^2 on spacing h lies
    between 3 r^2 and 3 r^2 + 3 h^2 / 4, so the primitive lies between u^3 and
    u^3 + (3 h^2 / 4) u.  Coercivity then holds with b0 = 1, b1 = 0, and
    growth with a0 = 1 plus a1 >= (3 h^2 / 4) * length^(1/4) by Hoelder; a1
    is set 1.5 times that.
    """
    reach = VERIFY_AMPLITUDE_MAX * math.sqrt(2.0 / length) * modes
    r = np.linspace(-reach, reach, TABLE_ENTRIES)
    h = 2.0 * reach / (TABLE_ENTRIES - 1)
    a1 = 1.5 * 0.75 * h * h * length ** 0.25
    return {
        "kind": "custom",
        "p": 4.0,
        "a0": 1.0,
        "a1": _num(a1),
        "b0": 1.0,
        "b1": 0.0,
        "table": {"r": [float(v) for v in r], "f": [float(3.0 * v * v) for v in r]},
    }


# The long workloads are split into runs of at most about a second, so that
# speed samples fall between invocations often enough (see speed.py), and
# passes are short enough that a run holds several of them.


def long_small(rng: np.random.Generator) -> list[RunSpec]:
    specs = []
    for i in range(6):
        cfg = {
            "domain": {"length": 1.0, "bc": DIRICHLET},
            "modes": 16,
            "nonlinearity": {"kind": "cubic"},
            "forcing": {"kind": "zero"},
            "initial": {
                "x0": {"type": "parabola", "amplitude": _num(rng.uniform(0.5, 1.5))},
                "x1": {"type": "zero"},
            },
            "time": {"T": 5.0, "dt": 1e-3, "integrator": "rk4", "sample_stride": 100},
            "verification": {"samples": 200},
            "seed": int(rng.integers(0, 2**31)),
            "output": _outputs(f"long_small{i}"),
        }
        specs.append(_spec(f"long_small{i}", cfg))
    return specs


def wide_modes(rng: np.random.Generator) -> list[RunSpec]:
    specs = []
    for i in range(5):
        cfg = {
            "domain": {"length": 1.0, "bc": DIRICHLET},
            "modes": 512,
            "nonlinearity": {"kind": "power_law", "p": 4.0},
            "forcing": {"kind": "zero"},
            "initial": {
                "x0": {"type": "parabola", "amplitude": _num(rng.uniform(0.5, 1.5))},
                "x1": {
                    "type": "sine",
                    "wavenumber": int(rng.integers(1, 4)),
                    "amplitude": _num(rng.uniform(0.0, 0.5)),
                },
            },
            "time": {"T": 0.15, "dt": 2.5e-4, "integrator": "rk4", "sample_stride": 100},
            "verification": {"samples": 200},
            "seed": int(rng.integers(0, 2**31)),
            "output": _outputs(f"wide_modes{i}"),
        }
        specs.append(_spec(f"wide_modes{i}", cfg))
    return specs


def dense_output(rng: np.random.Generator) -> list[RunSpec]:
    specs = []
    for i in range(4):
        cfg = {
            "domain": {"length": 1.0, "bc": PERIODIC},
            "modes": 32,
            "nonlinearity": {"kind": "cubic"},
            "forcing": _affine(rng, 1.0, g1_hi=0.1, g2_hi=0.1, g2=True),
            "initial": {
                "x0": {"type": "sine", "wavenumber": 1, "amplitude": _num(rng.uniform(0.5, 1.0))},
                "x1": {"type": "zero"},
            },
            "time": {"T": 5.0, "dt": 1e-3, "integrator": "rk4", "sample_stride": 1},
            "verification": {"samples": 200},
            "seed": int(rng.integers(0, 2**31)),
            "output": _outputs(f"dense_output{i}"),
        }
        specs.append(_spec(f"dense_output{i}", cfg))
    return specs


# short_mix design: the cost-setting columns of each slot (kind, mode count,
# step count, stride, verification draws) are fixed and the seed fills in the
# values.  Cycles of coprime length pair the columns up variously.  Custom-F
# slots draw fewer verification samples: each draw costs 32 table lookups per
# grid node, and a pass should stay a few seconds.
_MIX_SLOTS = 40
_MIX_BC = (DIRICHLET, PERIODIC)
_MIX_KINDS = ("cubic", "power_law", "cubic", "power_law", "custom")
_MIX_MODES = (8, 12, 16, 24, 32, 48, 64)
_MIX_SAMPLES = (200, 500, 1000, 2000)
_MIX_CUSTOM_SAMPLES = (200, 500)
_MIX_T = (0.1, 0.2)
_MIX_STRIDES = (1, 2, 5, 10)


def short_mix(rng: np.random.Generator) -> list[RunSpec]:
    specs = []
    for i in range(_MIX_SLOTS):
        bc = _MIX_BC[i % 2]
        kind = _MIX_KINDS[i % 5]
        forced = i % 6 >= 3
        # Verlet needs velocity-independent forcing, so forced Verlet slots
        # get g2 = 0.
        verlet = i % 4 >= 2
        m = _MIX_MODES[i % 7]
        length = _num(rng.uniform(0.5, 2.0))
        if kind == "cubic":
            nl = {"kind": "cubic"}
        elif kind == "power_law":
            nl = {"kind": "power_law", "p": _num(rng.uniform(3.0, 6.0))}
        else:
            nl = custom_table(m, length)
        forcing = _affine(rng, length, g1_hi=0.5, g2_hi=0.5, g2=not verlet) if forced else {"kind": "zero"}
        if rng.uniform() < 0.5:
            x0 = {"type": "parabola", "amplitude": _num(rng.uniform(0.5, 2.0))}
        else:
            x0 = {"type": "sine", "wavenumber": int(rng.integers(1, 4)), "amplitude": _num(rng.uniform(0.1, 0.5))}
        if rng.uniform() < 0.5:
            x1 = {"type": "zero"}
        else:
            x1 = {"type": "sine", "wavenumber": int(rng.integers(1, 4)), "amplitude": _num(rng.uniform(0.0, 0.3))}
        samples = _MIX_CUSTOM_SAMPLES[(i // 5) % 2] if kind == "custom" else _MIX_SAMPLES[(i // 4) % 4]
        name = f"mix{i:02d}"
        cfg = {
            "domain": {"length": length, "bc": bc},
            "modes": m,
            "nonlinearity": nl,
            "forcing": forcing,
            "initial": {"x0": x0, "x1": x1},
            "time": {
                "T": _MIX_T[(i // 2) % 2],
                "dt": 1e-3 if m <= 32 else 5e-4,
                "integrator": "stormer_verlet" if verlet else "rk4",
                "sample_stride": _MIX_STRIDES[i % 4],
            },
            "verification": {"samples": samples},
            "seed": int(rng.integers(0, 2**31)),
            "output": _outputs(name),
        }
        specs.append(_spec(name, cfg))
    order = rng.permutation(len(specs))
    return [specs[j] for j in order]


GENERATORS = {
    "long_small": long_small,
    "wide_modes": wide_modes,
    "dense_output": dense_output,
    "short_mix": short_mix,
}
# A workload's position here is part of its random stream; append new ones.
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[RunSpec]:
    """The workload's configurations for ``seed``; same seed, same configs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng)


def config_text(spec: RunSpec) -> str:
    return json.dumps(spec.config, indent=1, sort_keys=True) + "\n"


def write_configs(specs: list[RunSpec], cfg_dir: Path) -> list[Path]:
    """Write one JSON file per configuration; returns the paths in run order."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        p = cfg_dir / f"{spec.name}.json"
        p.write_text(config_text(spec))
        paths.append(p)
    return paths
