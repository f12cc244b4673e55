"""Command-line orchestration: verify, run, converge, decay.

Exit codes are disjoint: 0 all enabled checks pass, 1 a condition or
monitor was falsified, 2 the trajectory diverged, 3 the configuration was
rejected.  All file writes are whole-file atomic (temp file + rename) and
runs are deterministic for a fixed config, so re-running produces
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, resolve_initial
from .estimates import (
    DecayParams,
    GronwallParams,
    absorbing_radius,
    comparison_rewrite_cap,
    decay_bound,
    derive_decay,
    derive_gronwall,
    gronwall_envelope,
    monitor,
    sample_table,
)
from .nonlinearity import ZERO, verify_conditions, verify_g
from .oracle import BERNOULLI, GRONWALL_LINEAR, linear_exact, max_H_error, reference_run, scalar_comparison
from .solver import Trajectory, integrate
from .spectral import build_operator

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

ENV_OUTPUT_DIR = "WAVEGALERKIN_OUTPUT_DIR"

CSV_COLUMNS = (
    "t",
    "energy",
    "kinetic",
    "potential",
    "By_norm_sq",
    "forcing_power",
    "gronwall_envelope",
    "decay_bound",
    "identity_residual",
)


def _resolve_out(path: str) -> Path:
    """Resolve an output path, re-rooting relative paths at the env override."""
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get(ENV_OUTPUT_DIR)
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite_json(obj):
    """Replace non-finite floats with the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _json(obj) -> str:
    """Strict JSON text: an unbounded check reads "inf", never a bare Infinity token."""
    return json.dumps(_finite_json(obj), indent=2, allow_nan=False)


def _num(v: float) -> str:
    return f"{v:.17g}"


def _csv_text(traj: Trajectory, gp: GronwallParams | None, dp: DecayParams | None) -> str:
    tbl = traj.energy
    cols = sample_table(traj, gp, dp)
    env = cols["gronwall_envelope"]
    dec = cols["decay_bound"]
    res = cols["identity_residual"]
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(tbl)):
        lines.append(
            ",".join(
                (
                    _num(tbl.t[i]),
                    _num(tbl.energy[i]),
                    _num(tbl.kinetic[i]),
                    _num(tbl.potential[i]),
                    _num(tbl.by_norm_sq[i]),
                    _num(tbl.forcing_power[i]),
                    _num(env[i]) if env is not None else "",
                    _num(dec[i]) if dec is not None else "",
                    _num(res[i]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _verification(rc: RunConfig):
    """Poincare plus condition checks; returns (op, report dict, proceed)."""
    domain = dataclasses.replace(rc.domain, allow_poincare_violation=True)
    op = build_operator(domain, rc.modes)
    poincare_ok = op.lambda_min >= 1.0
    nl_rep = verify_conditions(rc.nl, op, rc.verify_samples, rc.seed)
    g_rep = verify_g(rc.fs, op, rc.verify_samples, rc.seed + 1)
    passed = poincare_ok and nl_rep.passed and g_rep.passed
    poincare_excused = poincare_ok or rc.domain.allow_poincare_violation or rc.verify_override
    conditions_excused = (nl_rep.passed and g_rep.passed) or rc.verify_override
    proceed = poincare_excused and conditions_excused
    report = {
        "passed": passed,
        "proceed": proceed,
        "override": rc.verify_override,
        "poincare": {
            "passed": poincare_ok,
            "lambda_min": op.lambda_min,
            "allow_poincare_violation": rc.domain.allow_poincare_violation,
        },
        "nonlinearity": nl_rep.to_dict(),
        "forcing": g_rep.to_dict(),
        "warnings": list(op.warnings),
    }
    return op, report, proceed


def _decay_applies(rc: RunConfig) -> bool:
    return rc.fs.kind == ZERO and rc.nl.p > 2.0


def _check_delta(rc: RunConfig, op) -> None:
    """Reject a given ``delta`` above ``c/2^(r-1)`` before stepping: the cap needs only ``p`` and the interval."""
    if _decay_applies(rc):
        comparison_rewrite_cap(rc.nl, op, rc.monitors.delta)


def _derive_bounds(rc: RunConfig, op, initial_record):
    """Envelope params always; decay params when the unforced p>2 case applies.

    ``dp`` is ``None`` also when ``k^r C^r`` overflows and no ``delta``
    exists (see :func:`derive_decay`): the decay check is then skipped.
    """
    gp = derive_gronwall(rc.nl, rc.fs, op, initial_record)
    dp = None
    if _decay_applies(rc):
        dp = derive_decay(rc.nl, rc.fs, op, initial_record, k=rc.monitors.k, delta=rc.monitors.delta)
    return gp, dp


def cmd_verify(rc: RunConfig) -> int:
    _, report, proceed = _verification(rc)
    print(_json(report))
    return EXIT_OK if proceed else EXIT_VIOLATION


def cmd_run(rc: RunConfig) -> int:
    report_path = _resolve_out(rc.output.report_path)
    csv_path = _resolve_out(rc.output.csv_path)
    op, ver_report, proceed = _verification(rc)
    if not proceed:
        _write_atomic(report_path, _json({"verification": ver_report, "monitor": None}) + "\n")
        print(f"verification failed; report at {report_path}")
        return EXIT_VIOLATION

    _check_delta(rc, op)
    init = resolve_initial(rc, op)
    traj = integrate(init.state, rc.solver, op, rc.nl, rc.fs)
    gp, dp = _derive_bounds(rc, op, traj.energy.row(0))
    rep = monitor(traj, gp, dp, rc.monitors.tolerances, rc.monitors.enabled_checks)

    _write_atomic(csv_path, _csv_text(traj, gp, dp))
    report = {
        "verification": ver_report,
        "monitor": rep.to_dict(),
        "initial": {
            "x0_tail_norm": init.x0_tail_norm,
            "x1_tail_norm": init.x1_tail_norm,
        },
        "gronwall_params": dataclasses.asdict(gp),
        "decay_params": dataclasses.asdict(dp) if dp is not None else None,
        "backend": traj.backend,
        "samples": len(traj),
        "csv_path": str(csv_path),
    }
    _write_atomic(report_path, _json(report) + "\n")

    status = "diverged" if traj.diverged else ("pass" if rep.passed else "violation")
    print(f"run: {status}; {len(traj)} samples; csv={csv_path} report={report_path}")
    if traj.diverged:
        return EXIT_DIVERGED
    return EXIT_OK if rep.passed else EXIT_VIOLATION


def _reference_initial(rc: RunConfig, m_ref: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial modal data in the reference basis."""
    domain = dataclasses.replace(rc.domain, grid_points=None)
    op_ref = build_operator(domain, m_ref)
    init = resolve_initial(rc, op_ref)
    return np.asarray(init.state.a), np.asarray(init.state.adot)


def cmd_converge(rc: RunConfig, modes: list[int], dts: list[float], m_ref: int | None, dt_ref_factor: int, out_json: str, out_csv: str) -> int:
    if not modes or not dts:
        raise ConfigError("mode and dt lists must be nonempty")
    if any(m2 <= m1 for m1, m2 in zip(modes, modes[1:])):
        raise ConfigError("--modes must be strictly ascending")
    if any(d2 <= d1 for d1, d2 in zip(dts, dts[1:])):
        raise ConfigError("--dts must be strictly ascending")
    if m_ref is None:
        m_ref = 2 * max(modes)
    if m_ref < 2 * max(modes):
        raise ConfigError("m_ref must be at least twice the largest member mode count")
    if dt_ref_factor < 10:
        raise ConfigError("dt_ref_factor must be at least 10")
    if rc.nl.kind == "custom" or rc.fs.kind not in ("zero", "affine"):
        raise ConfigError("convergence study supports built-in kinds only")

    _, _, proceed = _verification(rc)
    if not proceed:
        print("verification failed; no study run")
        return EXIT_VIOLATION

    domain = dataclasses.replace(rc.domain, grid_points=None)
    stride = rc.solver.sample_stride
    x0_ref, x1_ref = _reference_initial(rc, m_ref)
    rows = []
    diverged = False
    for dt in dts:
        dt_ref = dt / dt_ref_factor
        ref = reference_run(
            domain,
            rc.nl,
            rc.fs,
            x0_ref,
            x1_ref,
            rc.solver.T,
            m_ref,
            dt_ref,
            sample_stride=stride * dt_ref_factor,
        )
        if ref.diverged:
            diverged = True
            break
        for m in modes:
            op = build_operator(domain, m)
            init = resolve_initial(rc, op)
            cfg = dataclasses.replace(rc.solver, dt=dt)
            traj = integrate(init.state, cfg, op, rc.nl, rc.fs)
            if traj.diverged:
                rows.append({"modes": m, "dt": dt, "error": None, "diverged": True})
                diverged = True
                break
            rows.append({"modes": m, "dt": dt, "error": max_H_error(traj, ref), "diverged": False})
        if diverged:
            break

    monotone = {}
    for dt in dts:
        errs = [r["error"] for r in rows if r["dt"] == dt and not r["diverged"]]
        if len(errs) == len(modes):
            monotone[f"{dt:g}"] = all(e2 < e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    study = {
        "m_ref": m_ref,
        "dt_ref_factor": dt_ref_factor,
        "rows": rows,
        "monotone_in_m": monotone,
        "complete": not diverged,
    }
    json_path = _resolve_out(out_json)
    csv_path = _resolve_out(out_csv)
    _write_atomic(json_path, _json(study) + "\n")
    csv_lines = ["modes,dt,error"]
    for r in rows:
        err = _num(r["error"]) if r["error"] is not None else "diverged"
        csv_lines.append(f"{r['modes']},{_num(r['dt'])},{err}")
    _write_atomic(csv_path, "\n".join(csv_lines) + "\n")
    print(f"converge: {len(rows)} runs; json={json_path} csv={csv_path}")

    if diverged:
        return EXIT_DIVERGED
    if not all(monotone.values()):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_decay(rc: RunConfig, T_override: float | None, out_json: str) -> int:
    if not _decay_applies(rc):
        raise ConfigError("decay study requires zero forcing and a nonlinearity with p > 2")
    solver_cfg = rc.solver
    if T_override is not None:
        try:
            solver_cfg = dataclasses.replace(rc.solver, T=T_override)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    op, ver_report, proceed = _verification(rc)
    if not proceed:
        print("verification failed; no study run")
        return EXIT_VIOLATION

    _check_delta(rc, op)
    init = resolve_initial(rc, op)
    traj = integrate(init.state, solver_cfg, op, rc.nl, rc.fs)
    gp, dp = _derive_bounds(rc, op, traj.energy.row(0))
    if dp is None:
        raise ConfigError(
            f"no decay bound: k^r C^r overflows a float (r = {rc.nl.p / 2.0:g}, C = {2.0 * traj.energy.energy[0]:.6g}), "
            "so no delta > 0 meets delta <= (k-1)/(k^r C^r)"
        )
    rep = monitor(traj, gp, dp, rc.monitors.tolerances)
    decay_checks = [c for c in rep.checks if c.name == "decay"]
    within_bound = bool(decay_checks and decay_checks[0].passed)
    sup_by = float(np.max(traj.energy.by_norm_sq))
    radius = absorbing_radius(dp)

    study = {
        "T": solver_cfg.T,
        "sup_by_norm_sq": sup_by,
        "asymptotic_radius": radius,
        "within_bound": within_bound,
        "sup_within_radius": bool(sup_by <= radius + 1e-9 * abs(radius)),
        "decay_params": dataclasses.asdict(dp),
        "monitor": rep.to_dict(),
        "verification": ver_report,
    }
    json_path = _resolve_out(out_json)
    _write_atomic(json_path, _json(study) + "\n")
    print(f"decay: sup ||By||^2 = {sup_by:.6g}, radius = {radius:.6g}; json={json_path}")

    if traj.diverged:
        return EXIT_DIVERGED
    return EXIT_OK if within_bound else EXIT_VIOLATION


def cmd_oracle(args) -> int:
    """Hidden debugging entry for the reference formulas."""
    t = np.asarray(args.t, dtype=np.float64)
    if args.formula == "linear":
        a, adot = linear_exact(args.k, args.lam, args.a0, args.adot0, t)
        out = {"t": list(t), "a": list(np.atleast_1d(a)), "adot": list(np.atleast_1d(adot))}
    elif args.formula == "gronwall":
        gp = GronwallParams(C0=args.C0, C1=args.C1, c_tilde=1.0, E_init=args.z0)
        closed = np.atleast_1d(gronwall_envelope(gp, t))
        dense = scalar_comparison(GRONWALL_LINEAR, {"C0": args.C0, "C1": args.C1, "z0": args.z0}, t)
        out = {"t": list(t), "closed_form": list(closed), "dense": [float(v) for v in dense]}
    else:
        dense = scalar_comparison(BERNOULLI, {"delta": args.delta, "r": args.r, "w0": args.w0}, t)
        dp = DecayParams(r=args.r, c=1.0, C=0.0, k=2.0, delta=args.delta)
        closed = np.atleast_1d(decay_bound(dp, args.w0, t))
        out = {"t": list(t), "closed_form": list(closed), "dense": [float(v) for v in dense]}
    print(_json(out))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavegalerkin",
        description="Spectral Galerkin wave solver with energy-estimate monitors.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{verify,run,converge,decay}")

    p_verify = sub.add_parser("verify", help="check structural conditions for a config")
    p_verify.add_argument("config")

    p_run = sub.add_parser("run", help="integrate and monitor; writes CSV and JSON report")
    p_run.add_argument("config")

    p_conv = sub.add_parser("converge", help="Galerkin convergence study against a reference run")
    p_conv.add_argument("config")
    p_conv.add_argument("--modes", type=int, nargs="+", required=True)
    p_conv.add_argument("--dts", type=float, nargs="+", required=True)
    p_conv.add_argument("--m-ref", type=int, default=None)
    p_conv.add_argument("--dt-ref-factor", type=int, default=10)
    p_conv.add_argument("--out-json", default="converge.json")
    p_conv.add_argument("--out-csv", default="converge.csv")

    p_decay = sub.add_parser("decay", help="long unforced run against the decay bound")
    p_decay.add_argument("config")
    p_decay.add_argument("--T", type=float, default=None)
    p_decay.add_argument("--out-json", default="decay.json")

    # Debugging helper; deliberately absent from the subcommand listing.
    p_oracle = sub.add_parser("oracle")
    o_sub = p_oracle.add_subparsers(dest="formula", required=True)
    o_lin = o_sub.add_parser("linear")
    o_lin.add_argument("--k", type=int, default=1)
    o_lin.add_argument("--lam", type=float, required=True)
    o_lin.add_argument("--a0", type=float, default=1.0)
    o_lin.add_argument("--adot0", type=float, default=0.0)
    o_lin.add_argument("--t", type=float, nargs="+", required=True)
    o_gr = o_sub.add_parser("gronwall")
    o_gr.add_argument("--C0", type=float, required=True)
    o_gr.add_argument("--C1", type=float, required=True)
    o_gr.add_argument("--z0", type=float, required=True)
    o_gr.add_argument("--t", type=float, nargs="+", required=True)
    o_be = o_sub.add_parser("bernoulli")
    o_be.add_argument("--delta", type=float, required=True)
    o_be.add_argument("--r", type=float, required=True)
    o_be.add_argument("--w0", type=float, required=True)
    o_be.add_argument("--t", type=float, nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        if args.command == "oracle":
            return cmd_oracle(args)
        rc = load_config(args.config)
        if args.command == "verify":
            return cmd_verify(rc)
        if args.command == "run":
            return cmd_run(rc)
        if args.command == "converge":
            return cmd_converge(rc, args.modes, args.dts, args.m_ref, args.dt_ref_factor, args.out_json, args.out_csv)
        if args.command == "decay":
            return cmd_decay(rc, args.T, args.out_json)
        parser.print_help()
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
