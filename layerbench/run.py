#!/usr/bin/env python3
"""Layered end-to-end benchmark for ``wavegalerkin run``.

Run from the repository root::

    python3 layerbench/run.py --workload long_small --seed 1 --seconds 10 --trace 0
    python3 layerbench/run.py --workload all --seed 1   # every workload, one process at a time
    python3 layerbench/run.py --self-test

Metric names, units, workloads and ``run_seconds`` come from
``BENCHMARK.json`` at the repository root.  One workload run, closed loop
with a single caller:

1. generates the workload's configs from ``--seed`` (see ``workloads.py``);
2. times ``cli.main(["verify", cfg])`` summed over the configs, several
   times, and reports the median as ``setup_s``;
3. runs one pass in a forked child, gating each built-in trajectory
   against ``oracle.reference_run`` right after its run, then one warm-up
   pass here;
4. runs timed passes (each ``cli.main(["run", cfg])`` for every config)
   for about ``--seconds``; with ``--trace 1`` it alternates untraced and
   traced passes, the traced ones wrapping the program's public layer
   functions with a span recorder (``tracing.py``);
5. checks exit codes, artifacts and byte-determinism of every invocation
   (``harness.py``);
6. when traced, runs microbenchmarks at the workload's shapes
   (``layers.py``);
7. times a fresh-interpreter ``python -m wavegalerkin.cli verify`` several
   times (``cold_start_s``).

It prints one line per metric, then as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  The full record,
including the environment and the spans, goes to ``.layerbench/results``.
BLAS is pinned to one thread, and this process and its children to one
CPU.  The exit
code is 0 when every gate passed, 1 when one failed, and nonzero without a
result when the program's sources are not in the checkout.
"""

from __future__ import annotations

import envinfo

# Must precede the first numpy import, including the ones below.
envinfo.pin_blas_threads()
envinfo.pin_cpu()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import (  # noqa: E402
    COMPUTED,
    EXPECTED_DOMINANCE,
    SPAN_TIMES,
    computed_kernel_counts,
    microbenchmarks,
    span_layers,
)
from tracing import SpanRecorder, traced  # noqa: E402
from workloads import INTERPRETER_SHARE, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".layerbench" / "results"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_SHARE = 0.1  # of --seconds, spent repeating the set-up measurement
MIN_PASSES = 2
COLD_START_REPEATS = 11
CHILD_TIMEOUT_S = 900


def import_program():
    """Import wavegalerkin from this checkout's ``src``, and nothing else."""
    pkg = SRC / "wavegalerkin"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"layerbench: no wavegalerkin sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import wavegalerkin

    if Path(wavegalerkin.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"layerbench: imported wavegalerkin from {wavegalerkin.__file__}, not {pkg}")


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(name: str, values: list[float]) -> str:
    unit = UNITS.get(name, "s")
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g} {unit}" if t else "no tail percentile: under 11 samples"
    return f"{name:<24} median {statistics.median(values):.6g} {unit}  ({tail_text}; n={len(values)})"


def cold_start(h) -> list[float]:
    """Wall times of a fresh-interpreter ``verify`` of the workload's first config.

    These are not scaled: a child process does not slow down in step with the
    speed kernels timed in this one, and scaling measured here made the
    run-to-run spread worse (up to 0.25 against 0.13 raw on wide_modes).
    """
    from harness import Outcome

    first = min(range(len(h.specs)), key=lambda i: h.specs[i].name)
    argv = [sys.executable, "-m", "wavegalerkin.cli", "verify", str(h.paths[first])]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw = []
    for _ in range(COLD_START_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        raw.append(perf_counter() - t0)
        failure = None
        if proc.returncode not in (0, 1) or b"Traceback" in proc.stderr:
            failure = f"cold verify exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        h.outcomes.append(
            Outcome(h.specs[first].name, "cold_verify", proc.returncode, raw[-1], failure=failure,
                    violation=failure is None and proc.returncode == 1)
        )
    return raw


@dataclass
class Measured:
    """Timings of one workload run; pass results carry raw and scaled times."""

    setup: list[tuple[float, float]]  # (raw, scaled) per set-up repeat
    untraced: list  # PassResult
    traced: list  # PassResult
    recorder: SpanRecorder
    oracle_s: float = 0.0
    benchmark_rss_mb: float = 0.0  # peak before the first program call
    peak_rss_mb: float = 0.0


def measure(h, seconds: int, trace: bool) -> Measured:
    """Set-up repeats, the gated pass, a warm-up pass, then timed passes
    for about ``seconds``."""
    m = Measured([], [], [], SpanRecorder())
    m.benchmark_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = perf_counter()
    while len(m.setup) < SETUP_MIN_REPEATS or (
        perf_counter() - t0 < SETUP_SHARE * seconds and len(m.setup) < SETUP_MAX_REPEATS
    ):
        m.setup.append(h.setup_pass())

    m.oracle_s = h.gated_pass_in_child()
    h.run_pass()  # warm-up

    start = perf_counter()
    while True:
        p0 = perf_counter()
        m.untraced.append(h.run_pass())
        if trace:
            with traced(m.recorder):
                m.traced.append(h.run_pass(recorder=m.recorder))
        wall = perf_counter() - p0
        enough = len(m.untraced) >= (1 if trace else MIN_PASSES)
        if enough and perf_counter() - start + wall > 1.1 * seconds:
            break
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def end_to_end(h, m: Measured, lines: list[str]) -> tuple[dict, dict]:
    run_s = [p.scaled for p in m.untraced]
    samples = {
        "run_s": run_s,
        "steps_per_s": [p.steps / s for p, s in zip(m.untraced, run_s)],
        "setup_s": [scaled for _, scaled in m.setup],
        "peak_rss_mb": [m.peak_rss_mb],
    }
    raw = {
        "run_s": [p.seconds for p in m.untraced],
        "setup_s": [r for r, _ in m.setup],
        "per_invocation_s": [o.seconds for p in m.untraced for o in p.outcomes],
    }
    for name, values in samples.items():
        note = f"; raw wall median {statistics.median(raw[name]):.6g} s" if name in raw else ""
        lines.append(describe(name, values) + note)
    # Passes are too few for a tail percentile of run_s; the tail of the
    # invocations that make them up stands in for it.
    lines.append(describe("per_invocation_s", raw["per_invocation_s"]) + " raw wall; tail of run_s")
    lines.append(f"{'benchmark_rss_mb':<24} {m.benchmark_rss_mb:.6g} MB  (peak before the first program call)")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, {"scaled": samples, "raw": raw, "benchmark_rss_mb": m.benchmark_rss_mb}


def per_layer(workload: str, h, m: Measured, lines: list[str]) -> tuple[dict, dict]:
    rec = m.recorder
    steps = statistics.median(p.steps for p in m.traced)
    ran = {o.name for o in m.untraced[0].outcomes if o.steps > 0}
    metrics = span_layers(rec, len(m.traced), steps)
    untraced_s = statistics.median(p.seconds for p in m.untraced)
    # Each traced pass runs right after an untraced one, so their ratio is
    # compared at nearly the same machine speed.
    metrics["trace.overhead_ratio"] = statistics.median(t.seconds / u.seconds for u, t in zip(m.untraced, m.traced)) - 1.0
    metrics["trace.accounted_ratio"] = metrics.pop("trace.main_s") / untraced_s
    # Span times are raw; scale them to reference speed like run_s.
    factor = sum(p.scaled for p in m.traced) / sum(p.seconds for p in m.traced)
    for name in SPAN_TIMES:
        metrics[name] *= factor
    metrics.update(computed_kernel_counts(h.specs, ran))
    h.probe.sample()
    micro = microbenchmarks(h.specs, h.paths, h.first_states)
    factor = h.probe.scaled(1.0, h.share)
    metrics.update({name: value * factor for name, value in micro.items()})
    metrics["cli.artifact_bytes"] = float(statistics.median(p.artifact_bytes for p in m.traced))
    metrics["oracle.reference_run_s"] = m.oracle_s
    for name in PER_LAYER:
        if name in metrics:
            unit = UNITS[name]
            tag = " (computed)" if name in COMPUTED else ""
            lines.append(f"{name:<28} {metrics[name]:.6g} {unit}{tag}")
    lines.append(
        f"trace: {len(rec.spans)} spans over {len(m.traced)} traced passes; layers account for "
        f"{metrics['trace.accounted_ratio']:.4f} of untraced raw run time (overhead {metrics['trace.overhead_ratio']:+.4f})"
    )
    share, floor = EXPECTED_DOMINANCE[workload]
    verdict = "as expected" if metrics[share] >= floor else "MISMATCH"
    lines.append(f"dominance: {share} = {metrics[share]:.3f} (expected >= {floor}) -> {verdict}")
    return metrics, {"untraced_raw_s": [p.seconds for p in m.untraced], "traced_raw_s": [p.seconds for p in m.traced]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from harness import Harness

    h = Harness(ROOT, workload, generate(workload, seed), INTERPRETER_SHARE[workload])
    lines = [f"[{workload} seed={seed} trace={int(trace)}] {len(h.specs)} configs, closed loop, 1 caller"]
    m = measure(h, seconds, trace)
    if trace:
        metrics, samples = per_layer(workload, h, m, lines)
    else:
        metrics, samples = end_to_end(h, m, lines)

    cold = cold_start(h)
    metrics["cold_start_s"] = statistics.median(cold)
    samples["cold_start_s"] = cold
    lines.append(describe("cold_start_s", cold) + " raw wall")
    attempts = len(h.outcomes)
    failed = sum(o.failure is not None for o in h.outcomes)
    runs = [o for o in h.outcomes if o.command != "oracle"]
    metrics["fail_ratio"] = failed / attempts
    metrics["violation_ratio"] = h.violations / len(runs)
    lines.append(f"{'fail_ratio':<24} {metrics['fail_ratio']:.6g} 1  ({failed} of {attempts} invocations and gates)")
    lines.append(
        f"{'violation_ratio':<24} {metrics['violation_ratio']:.6g} 1  "
        f"({h.violations} of {len(runs)} invocations exited 1 or 2 on a config whose conditions hold)"
    )
    if h.gate_gaps:
        lines.append(f"oracle gate: {len(h.gate_gaps)} trajectories, worst relative gap {max(h.gate_gaps.values()):.3e}")
    lines.extend(f"FAILED {f}" for f in h.failures[:20])

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not h.failures,
        "attempted": attempts,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "speed_samples": h.probe.samples,
        "passes": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "oracle_gaps": h.gate_gaps,
        "failures": h.failures,
        "environment": envinfo.environment(ROOT, seed, h.backends()),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        m.recorder.write_jsonl(stem.with_suffix(".spans.jsonl"))
    env = result["environment"]
    lines.append(
        f"env: {env['cpu_model']}, nproc {env['nproc']}, caches {env['caches']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, jsonschema {env['jsonschema']}, "
        f"BLAS {env['blas']['name']} {env['blas']['version']} threads={env['blas']['threads']}, "
        f"backend {env['backend']}, numba available {env['numba_available']}, commit {env['git_commit']}"
    )
    lines.append(f"record: {stem.with_suffix('.json').relative_to(ROOT)}")
    result["lines"] = lines
    return result


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k.rsplit(":", 1)[-1]]} for k, v in metrics.items()},
        }
    )


def run_one(args) -> int:
    import_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result["lines"]))
    metrics = {n: result["metrics"][n] for n in (PER_LAYER if args.trace else END_TO_END)}
    print(final_line(result["correct"], result["attempted"], result["failed"], metrics))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, strictly one after another."""
    import_program()
    correct, attempted, failed, metrics, table = True, 0, 0, {}, []
    for w in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode not in (0, 1) or not out:
            print(proc.stderr, file=sys.stderr)
            return 2
        last = json.loads(out[-1])
        record = json.loads((RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json").read_text())
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for name, m in last["metrics"].items():
            metrics[f"{w}:{name}"] = m["value"]
        table.append((w, record["metrics"]))
    names = list(PER_LAYER if args.trace else END_TO_END)
    if not args.trace:
        names += ["cold_start_s", "fail_ratio", "violation_ratio"]
    print(f"\n{'metric':<28}" + "".join(f"{w:>14}" for w, _ in table))
    for n in names:
        print(f"{n + ' [' + UNITS[n] + ']':<28}" + "".join(f"{m[n]:>14.6g}" for _, m in table))
    print(final_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.self_test:
        import_program()
        import selftest

        return selftest.main(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
