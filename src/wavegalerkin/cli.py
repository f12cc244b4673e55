"""Command-line orchestration: verify, run, converge.

Exit codes are disjoint: 0 every check that applies passed, 1 a condition
or monitor was falsified, 2 the trajectory diverged, 3 the command line,
the configuration or an output path was rejected.  All file writes are
whole-file atomic (temp file + rename) and runs are deterministic for a
fixed config, so re-running produces byte-identical artifacts.
Verification states the verifiers' reports and judges nothing itself: a
command goes ahead exactly when every check they decide passed, the
Poincare condition among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _check_history, load_config, resolve_initial
from .estimates import (
    BLOCK_ROWS,
    absorbing_radius,
    derive_decay,
    derive_gronwall,
    monitor,
    sample_table,
)
from .nonlinearity import verify_conditions, verify_g
from .oracle import max_H_error, reference_run
from .solver import SolverConfig, Trajectory, integrate
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
# _csv_text formats this many rows at a time, energy_table's block size.
CSV_BLOCK_ROWS = BLOCK_ROWS


class OutputError(Exception):
    """An output path cannot be created or written."""


def _resolve_out(path: str) -> Path:
    """Resolve an output path, re-rooting relative paths at the env override.

    Its directory is created here, and a path that cannot hold a file fails
    here, so a command rejects it before doing any work.
    """
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get(ENV_OUTPUT_DIR)
        if base:
            p = Path(base) / p
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OutputError(f"cannot create the directory of {p}: {e.strerror or e}") from e
    if p.is_dir():
        raise OutputError(f"{p} is a directory")
    return p


def _write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks in order, to a temp file and rename it to ``path``.

    Chunks are written as they come, so the whole text is never held at
    once.  If writing fails or the chunks raise, the temp file is removed
    and ``path`` keeps its old contents.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from e


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


def _csv_text(traj: Trajectory, bounds: dict[str, np.ndarray | None]) -> Iterator[str]:
    """The CSV text: the header, then one chunk per :data:`CSV_BLOCK_ROWS` rows.

    The energy columns, then the bound columns of
    :func:`~wavegalerkin.estimates.sample_table` that the monitors judged.
    One ``%.17g`` row format over Python-float columns; an absent bound
    column stays empty.  Python floats format fastest.  :func:`_write_atomic`
    writes each chunk as it comes, so a run's peak memory is its history
    plus the energy columns and one block, never the whole file's text.
    """
    tbl = traj.energy
    cols = [tbl.t, tbl.energy, tbl.kinetic, tbl.potential, tbl.by_norm_sq, tbl.forcing_power]
    cols += [bounds["gronwall_envelope"], bounds["decay_bound"], bounds["identity_residual"]]
    row = ",".join("%.17g" if c is not None else "" for c in cols) + "\n"
    cols = [c for c in cols if c is not None]
    yield ",".join(CSV_COLUMNS) + "\n"
    for i in range(0, len(tbl), CSV_BLOCK_ROWS):
        rows = zip(*(c[i : i + CSV_BLOCK_ROWS].tolist() for c in cols))
        yield "".join(row % r for r in rows)


def _remove(path: Path) -> None:
    """Remove an earlier run's artifact at ``path``, if there is one."""
    try:
        path.unlink(missing_ok=True)
    except OSError as e:
        raise OutputError(f"cannot remove {path}: {e.strerror or e}") from e


def _verification(rc: RunConfig):
    """The condition reports of ``F`` and the operator, and of ``g``; returns (op, report dict, passed).

    A run goes ahead exactly when every check passed.  Every condition is
    decided, with no draws: a custom table's on its knot range, which the
    report states.
    """
    op = build_operator(rc.domain, rc.modes)
    nl_rep = verify_conditions(rc.nl, op)
    g_rep = verify_g(rc.fs, op)
    passed = nl_rep.passed and g_rep.passed
    report = {"passed": passed, "nonlinearity": nl_rep.to_dict(), "forcing": g_rep.to_dict()}
    return op, report, passed


def cmd_verify(rc: RunConfig) -> int:
    _, report, passed = _verification(rc)
    print(_json(report))
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_run(rc: RunConfig) -> int:
    report_path = _resolve_out(rc.output.report_path)
    csv_path = _resolve_out(rc.output.csv_path)
    op, ver_report, passed = _verification(rc)
    if not passed:
        # No trajectory was produced, so an earlier run's CSV must not stay
        # next to this report.
        _remove(csv_path)
        _write_atomic(report_path, _json({"verification": ver_report, "monitor": None}) + "\n")
        print(f"verification failed; report at {report_path}")
        return EXIT_VIOLATION

    init = resolve_initial(rc, op)
    traj = integrate(init.state, rc.solver, op, rc.nl, rc.fs)
    e0 = float(traj.energy.energy[0])
    try:
        if not math.isfinite(2.0 * e0):
            raise ValueError(f"the initial data x0, x1 have energy E(0) = {e0:g}; the bounds need 2E(0) to be a finite float")
        gp = derive_gronwall(rc.nl, rc.fs, op, e0)
    except ValueError as e:
        # No bound starts from it, so no earlier run's artifacts may stay.
        _remove(csv_path)
        _remove(report_path)
        raise ConfigError(str(e)) from e
    dp = derive_decay(rc.nl, rc.fs, op, e0)
    bounds = sample_table(traj, gp, dp)
    rep = monitor(traj, bounds)

    _write_atomic(csv_path, _csv_text(traj, bounds))
    ball = None
    if dp is not None:
        sup_by = float(np.max(traj.energy.by_norm_sq))
        radius = absorbing_radius(dp)
        ball = {
            "sup_by_norm_sq": sup_by,
            "asymptotic_radius": radius,
            "sup_within_radius": bool(sup_by <= radius + 1e-9 * abs(radius)),
        }
    report = {
        "verification": ver_report,
        "monitor": rep.to_dict(),
        "initial": {
            "x0_tail_norm": init.x0_tail_norm,
            "x1_tail_norm": init.x1_tail_norm,
        },
        "gronwall_params": dataclasses.asdict(gp),
        "decay_params": dataclasses.asdict(dp) if dp is not None else None,
        "absorbing_ball": ball,
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
    if rc.nl.table is not None:
        raise ConfigError("convergence study supports the power law only, not a table")
    stride = rc.solver.sample_stride
    cfgs = {dt: dataclasses.replace(rc.solver, dt=dt) for dt in dts}
    for dt, cfg in cfgs.items():  # every member's and reference's history fits, before any run
        _check_history(cfg, modes[-1])
        _check_history(SolverConfig(T=rc.solver.T, dt=dt / dt_ref_factor, sample_stride=stride * dt_ref_factor), m_ref)
    json_path = _resolve_out(out_json)
    csv_path = _resolve_out(out_csv)

    _, _, passed = _verification(rc)
    if not passed:
        print("verification failed; no study run")
        return EXIT_VIOLATION

    domain = dataclasses.replace(rc.domain, grid_points=None)
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
            traj = integrate(init.state, cfgs[dt], op, rc.nl, rc.fs)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as a rejected config does; argparse's own 2 would read "diverged".

    ``add_subparsers`` builds the subcommand parsers as this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Built once per process: ``parse_args`` reads the tree without changing
# it and returns a fresh namespace, so in-process callers of ``main`` share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavegalerkin",
        description="Spectral Galerkin wave solver with energy-estimate monitors.",
    )
    sub = parser.add_subparsers(dest="command")

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

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        rc = load_config(args.config)
        if args.command == "verify":
            return cmd_verify(rc)
        if args.command == "run":
            return cmd_run(rc)
        return cmd_converge(rc, args.modes, args.dts, args.m_ref, args.dt_ref_factor, args.out_json, args.out_csv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
