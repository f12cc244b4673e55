"""Per-layer numbers: span totals from a traced pass, computed kernel
counts, and microbenchmarks at each workload's shapes.

Layer names follow the repository's modules.  Times are per workload pass
(summed over the pass's configs), averaged over the traced passes, and the
benchmark scales them to reference machine speed (speed.py).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from tracing import SpanRecorder
from workloads import RunSpec

# Span names (see tracing.layer_targets) that make up each reported layer.
LAYER_SPANS = {
    "config.load_config_s": ("cli.load_config",),
    "spectral.build_operator_s": ("cli.build_operator",),
    "nonlinearity.verify_s": ("cli.verify_conditions", "cli.verify_g"),
    "solver.resolve_initial_s": ("cli.resolve_initial",),
    "solver.integrate_s": ("cli.integrate",),
    "kernels.run_numpy_s": ("kernels.run_numpy",),
    "estimates.energy_table_s": ("solver.energy_table",),
    "estimates.derive_s": ("cli.derive_gronwall", "cli.derive_decay"),
    "estimates.monitor_s": ("cli.monitor",),
    "estimates.sample_table_s": ("cli.sample_table",),
}

# Every time-valued metric span_layers returns.
SPAN_TIMES = tuple(LAYER_SPANS) + ("solver.integrate_self_s", "cli.self_s", "kernels.step_us")

# Each group's layers partition the ``cli.main`` span (with integrate's own
# self time as the small remainder) and give the dominance shares.
SHARE_GROUPS = {
    "share.setup": (
        "config.load_config_s",
        "spectral.build_operator_s",
        "nonlinearity.verify_s",
        "solver.resolve_initial_s",
    ),
    "share.stepping": ("kernels.run_numpy_s",),
    "share.output": (
        "estimates.energy_table_s",
        "estimates.derive_s",
        "estimates.monitor_s",
        "estimates.sample_table_s",
        "cli.self_s",
    ),
}

# Which share the workload was built to make large, and how large it
# should be at least.  A miss is reported, not treated as a failure.
EXPECTED_DOMINANCE = {
    "long_small": ("share.stepping", 0.8),
    "wide_modes": ("share.stepping", 0.8),
    "dense_output": ("share.output", 0.2),
    "short_mix": ("share.setup", 0.5),
}


def span_layers(rec: SpanRecorder, passes: int, steps: int) -> dict[str, float]:
    """Per-pass layer times from a recorder that saw ``passes`` traced passes."""
    total = rec.totals("duration")
    self_time = rec.totals("self_time")
    out = {name: sum(total.get(s, 0.0) for s in spans) / passes for name, spans in LAYER_SPANS.items()}
    out["solver.integrate_self_s"] = self_time.get("cli.integrate", 0.0) / passes
    out["cli.self_s"] = self_time.get("cli.main", 0.0) / passes
    out["kernels.step_us"] = out["kernels.run_numpy_s"] / steps * 1e6 if steps else float("nan")
    main = total.get("cli.main", 0.0) / passes
    for share, names in SHARE_GROUPS.items():
        out[share] = sum(out[n] for n in names) / main if main else float("nan")
    out["trace.main_s"] = main
    return out


# Values derived from the configs, not measured; they repeat exactly.
COMPUTED = ("kernels.accel_evals", "kernels.flops_per_step", "kernels.bytes_per_step", "kernels.flops_per_byte")


def computed_kernel_counts(specs: list[RunSpec], ran: set[str]) -> dict[str, float]:
    """Acceleration evaluations and the flops/bytes they imply, computed.

    One evaluation is two dense products with the N x m basis and projection:
    4*N*m flops and 16*N*m bytes of float64 matrix read.
    """
    evals = steps = flops = nbytes = 0
    for s in specs:
        if s.name not in ran:
            continue
        nm = s.grid_points * s.modes
        evals += s.accel_evals
        steps += s.n_steps
        flops += s.accel_evals * 4 * nm
        nbytes += s.accel_evals * 16 * nm
    return {
        "kernels.accel_evals": float(evals),
        "kernels.flops_per_step": flops / steps if steps else float("nan"),
        "kernels.bytes_per_step": nbytes / steps if steps else float("nan"),
        "kernels.flops_per_byte": flops / nbytes if nbytes else float("nan"),
    }


def _per_call_us(fn, budget_s: float) -> float:
    """Median per-call time over batches of at least a millisecond."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        dt = perf_counter() - t0
        if dt >= 1e-3:
            break
        n *= 2
    times = [dt / n]
    deadline = perf_counter() + budget_s
    while len(times) < 5 or perf_counter() < deadline:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def microbenchmarks(specs: list[RunSpec], paths, first_states: dict, budget_s: float = 0.02) -> dict[str, float]:
    """Grid round-trip and pointwise F at each config's shape and state.

    Each config's time is weighted by its acceleration evaluations, which is
    how often stepping pays it.
    """
    from wavegalerkin.config import load_config
    from wavegalerkin.nonlinearity import F_on_grid
    from wavegalerkin.spectral import SpectralField, build_operator, from_grid, to_grid

    rt = fg = weight = 0.0
    for spec, path in zip(specs, paths):
        rc = load_config(path)
        op = build_operator(rc.domain, rc.modes)
        a = first_states.get(spec.name)
        if a is None:
            a = np.random.default_rng(0).uniform(-1.0, 1.0, rc.modes) / rc.modes
        field = SpectralField(a, op)
        u = to_grid(field)
        w = spec.accel_evals
        rt += w * _per_call_us(lambda: from_grid(to_grid(field), op), budget_s)
        fg += w * _per_call_us(lambda: F_on_grid(rc.nl, u), budget_s)
        weight += w
    return {"spectral.roundtrip_us": rt / weight, "nonlinearity.F_on_grid_us": fg / weight}
