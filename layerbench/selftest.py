"""Checks on the benchmark itself: ``python3 layerbench/run.py --self-test``.

- the same seed gives byte-identical configs, and another seed other ones;
- the oracle gate accepts the program's trajectory and rejects one with a
  perturbed sample;
- the artifact checks reject a truncated CSV and a changed report;
- the traced layers account for the untraced pass time within the
  measured tracing overhead.
"""

from __future__ import annotations

import dataclasses
import statistics
from pathlib import Path

from harness import GATE_RK4, GateInput, Harness, captured_trajectories, oracle_gap
from layers import SHARE_GROUPS, span_layers
from tracing import SpanRecorder, traced
from workloads import WORKLOADS, config_text, generate

# Tolerance on the traced accounting beyond the measured overhead: the two
# passes are timed at different moments on a shared machine.
ACCOUNTING_SLACK = 0.05


def check_config_determinism() -> str | None:
    for w in WORKLOADS:
        first = [config_text(s) for s in generate(w, 7)]
        again = [config_text(s) for s in generate(w, 7)]
        other = [config_text(s) for s in generate(w, 8)]
        if first != again:
            return f"{w}: seed 7 gave different configs on a second call"
        if first == other:
            return f"{w}: seeds 7 and 8 gave identical configs"
    return None


def _small_mix(root: Path) -> Harness:
    specs = sorted(generate("short_mix", 3), key=lambda s: s.name)
    chosen = [s for s in specs if s.builtin and s.rk4][:4] + [s for s in specs if not s.builtin][:2]
    return Harness(root, "selftest", chosen)


def check_oracle_gate(h: Harness) -> str | None:
    h.gated_pass_in_child()
    if h.failures:
        return f"gated pass failed: {h.failures[0]}"
    s, p = next((s, p) for s, p in zip(h.specs, h.paths) if s.builtin and s.rk4)
    with captured_trajectories() as trajs:
        h.run_one(s, p)
    run = GateInput.of(trajs[0])
    gap = oracle_gap(run)
    if not gap <= GATE_RK4:
        return f"gate rejected the program's own trajectory ({gap:.3e})"
    a = run.a.copy()
    a[-1, 0] += 1e-6 * float(abs(a).max())
    bad = oracle_gap(dataclasses.replace(run, a=a))
    if not bad > GATE_RK4:
        return f"gate accepted a trajectory perturbed by 1e-6 (gap {bad:.3e})"
    return None


def check_artifact_gates(h: Harness) -> str | None:
    s, p = h.specs[0], h.paths[0]
    o = h.run_one(s, p)
    if o.failure:
        return f"clean run failed the artifact checks: {o.failure}"
    csv_path = h.work / s.config["output"]["csv_path"]
    report_path = h.work / s.config["output"]["report_path"]
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]))
    if h._check_artifacts(s, dataclasses.replace(o), csv_path, report_path) is None:
        return "a truncated CSV passed the artifact checks"
    h.run_one(s, p)
    report_path.write_text(report_path.read_text().replace('"samples"', '"samples" ', 1))
    if h._check_artifacts(s, dataclasses.replace(o), csv_path, report_path) is None:
        return "a changed report passed the determinism check"
    return None


def check_trace_accounting(h: Harness) -> str | None:
    rec = SpanRecorder()
    untraced, traced_passes = [], []
    for _ in range(3):
        untraced.append(h.run_pass().seconds)
        with traced(rec):
            traced_passes.append(h.run_pass(recorder=rec))
    layers = span_layers(rec, len(traced_passes), statistics.median(p.steps for p in traced_passes))
    parts = sum(layers[n] for names in SHARE_GROUPS.values() for n in names) + layers["solver.integrate_self_s"]
    main = layers["trace.main_s"]
    if abs(parts - main) > 1e-9 * max(main, 1.0):
        return f"layers sum to {parts:.6f} s but the main spans cover {main:.6f} s"
    run_s = statistics.median(untraced)
    overhead = statistics.median(p.seconds for p in traced_passes) / run_s - 1.0
    accounted = parts / run_s - 1.0
    if abs(accounted) > abs(overhead) + ACCOUNTING_SLACK:
        return f"layers account for {1 + accounted:.3f} of run_s, overhead only {overhead:+.3f}"
    return None


def main(root: Path) -> int:
    h = _small_mix(root)
    checks = (
        ("same seed, same configs", check_config_determinism),
        ("oracle gate rejects a perturbed trajectory", lambda: check_oracle_gate(h)),
        ("artifact checks reject stale or changed files", lambda: check_artifact_gates(h)),
        ("traced layers account for untraced run_s", lambda: check_trace_accounting(h)),
    )
    failed = 0
    for label, fn in checks:
        problem = fn()
        failed += problem is not None
        print(f"{'PASS' if problem is None else 'FAIL'} {label}" + (f": {problem}" if problem else ""))
    return 1 if failed else 0
