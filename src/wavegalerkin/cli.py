"""Command-line orchestration: verify, run, converge.

``converge`` judges a study by its own members alone: along dts of one ratio
their differences shrink at the integrator's order, along m they decrease.
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
    energy_table,
    monitor,
    sample_table,
)
from .nonlinearity import verify_conditions, verify_g
from .solver import RK4, STORMER_VERLET, Trajectory, integrate
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

# converge: a judged order (_line) must exceed the integrator's order less
# ORDER_MARGIN along dt, and 0 along m; FLOOR_ULPS sizes the round-off floor.
INTEGRATOR_ORDER = {RK4: 4, STORMER_VERLET: 2}
ORDER_MARGIN = 0.5
FLOOR_ULPS = 10
STUDY_COLUMNS = ("axis", "modes", "dt", "next", "difference", "floor", "order")


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
    """The condition reports of ``F`` and the operator, and of ``g``; returns (op, report dict, Gronwall constants).

    A run goes ahead exactly when every check passed.  Every condition is
    decided, with no draws: a custom table's on its knot range, which the
    report states.  When they pass, the Gronwall constants, which need no
    initial state, are derived with ``E_init = 0``, and constants past the
    float range are a ``ConfigError``; when a check failed they are ``None``.
    """
    op = build_operator(rc.domain, rc.modes)
    nl_rep = verify_conditions(rc.nl, op)
    g_rep = verify_g(rc.fs, op)
    passed = nl_rep.passed and g_rep.passed
    gp = None
    if passed:
        try:
            gp = derive_gronwall(rc.nl, rc.fs, op, 0.0)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    report = {"passed": passed, "nonlinearity": nl_rep.to_dict(), "forcing": g_rep.to_dict()}
    return op, report, gp


def cmd_verify(rc: RunConfig) -> int:
    _, report, _ = _verification(rc)
    print(_json(report))
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


def cmd_run(rc: RunConfig) -> int:
    report_path = _resolve_out(rc.output.report_path)
    csv_path = _resolve_out(rc.output.csv_path)
    # No earlier run's artifact may outlive a rejection or failure of this one.
    _remove(csv_path)
    _remove(report_path)
    op, ver_report, gp = _verification(rc)
    if gp is None:
        _write_atomic(report_path, _json({"verification": ver_report, "monitor": None}) + "\n")
        print(f"verification failed; report at {report_path}")
        return EXIT_VIOLATION

    init = resolve_initial(rc, op)
    # Every rejection comes before the first step: verification derived the
    # Gronwall constants, and E(0) of the initial state alone is checked here.
    state = init.state
    e0 = float(energy_table(op, rc.nl, rc.fs, np.zeros(1), state.a[None], state.adot[None]).energy[0])
    if not math.isfinite(2.0 * e0):
        raise ConfigError(f"the initial data x0, x1 have energy E(0) = {e0:g}; the bounds need 2E(0) to be a finite float")
    traj = integrate(state, rc.solver, op, rc.nl, rc.fs)
    # The bounds start from the energy table's E(0), the CSV's first row:
    # one row takes BLAS's matrix-vector path, and the two can differ in
    # the last bit.
    e0 = float(traj.energy.energy[0])
    gp = dataclasses.replace(gp, E_init=2.0 * e0)
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
        "initial": {"x0_tail_norm": init.x0_tail_norm, "x1_tail_norm": init.x1_tail_norm},
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
    return EXIT_DIVERGED if traj.diverged else (EXIT_OK if rep.passed else EXIT_VIOLATION)


def _difference(u, v) -> tuple[float, float]:
    """The largest H distance of members ``(times, positions, n_steps)`` over their shared sample times, and its floor.

    ``u`` has the smaller dt or the fewer modes, and is zero-padded to
    ``v``'s.  The round-off floor is :data:`FLOOR_ULPS` float epsilons per
    step of ``u`` times the larger of the two members' largest H norms.
    """
    (tu, au, n_steps), (tv, av, _) = u, v
    j = np.searchsorted(tv, tu).clip(max=tv.size - 1)
    j = np.where(np.abs(tv[j - 1] - tu) < np.abs(tv[j] - tu), j - 1, j)
    shared = np.abs(tv[j] - tu) <= 1e-9 * np.maximum(1.0, tu)
    diff = av[j[shared]]
    diff[:, : au.shape[1]] -= au[shared]
    norm_sq = max(np.max(np.sum(au * au, axis=1)), np.max(np.sum(av * av, axis=1)))
    return math.sqrt(np.max(np.sum(diff * diff, axis=1))), FLOOR_ULPS * np.finfo(float).eps * n_steps * math.sqrt(norm_sq)


def _line(axis: str, keys: list[tuple[int, float]], members: dict) -> list[dict]:
    """One row per successive pair of the members ``keys``, ``(modes, dt)``, along ``axis``: ``"dt"`` or ``"m"``.

    A row holds the pair's difference and floor (:func:`_difference`) and
    the order observed from it to the next row's difference against dt,
    or 1/m along m.  Only where both are above their floors is there an
    order, which is judged; elsewhere, and on the last row, it is ``None``.
    """
    rows = []
    for (m, dt), (m2, dt2) in zip(keys, keys[1:]):
        d, floor = _difference(members[m, dt], members[m2, dt2])
        rows.append(dict(zip(STUDY_COLUMNS, (axis, m, dt, dt2 if axis == "dt" else m2, d, floor, None))))
    for r, s in zip(rows, rows[1:]):
        if r["difference"] > r["floor"] and s["difference"] > s["floor"]:
            width = s["dt"] / r["dt"] if axis == "dt" else r["modes"] / s["modes"]
            r["order"] = math.log(s["difference"] / r["difference"]) / math.log(width)
    return rows


def cmd_converge(rc: RunConfig, modes: list[int], dts: list[float], out_json: str, out_csv: str) -> int:
    if min(modes) < 1:
        raise ConfigError(f"--modes {min(modes)}: a mode count must be positive")
    cfgs = []
    for dt in dts:
        try:
            cfgs.append(dataclasses.replace(rc.solver, dt=dt))
        except ValueError as e:
            raise ConfigError(f"--dts {dt:g}: {e}") from e
    for option, values in (("--modes", modes), ("--dts", dts)):
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            raise ConfigError(f"{option} must be strictly ascending")
    if any(not math.isclose(dt3 / dt2, dts[1] / dts[0], rel_tol=1e-9) for dt2, dt3 in zip(dts[1:], dts[2:])):
        raise ConfigError(f"--dts {' '.join(f'{dt:g}' for dt in dts)}: successive dts must share one ratio")
    if len(modes) < 3 and len(dts) < 3:
        raise ConfigError("a study judges orders of successive differences: give at least 3 --modes or 3 --dts")
    _check_history(cfgs, modes)  # the study holds every member's history at once
    json_path = _resolve_out(out_json)
    csv_path = _resolve_out(out_csv)

    if _verification(rc)[2] is None:
        print("verification failed; no study run")
        return EXIT_VIOLATION

    # Each member is a run on the default grid of its mode count.
    domain = dataclasses.replace(rc.domain, grid_points=None)
    runs, members = [], {}
    for m in modes:
        op = build_operator(domain, m)
        state = resolve_initial(rc, op).state
        for cfg in cfgs:
            traj = integrate(state, cfg, op, rc.nl, rc.fs)
            runs.append({"modes": m, "dt": cfg.dt, "samples": len(traj), "diverged": traj.diverged})
            members[m, cfg.dt] = traj.times, traj.a, cfg.n_steps
    complete = not any(r["diverged"] for r in runs)
    rows = []
    if complete:
        for m in modes:
            rows += _line("dt", [(m, dt) for dt in dts], members)
        for dt in dts:
            rows += _line("m", [(m, dt) for m in modes], members)
    order = INTEGRATOR_ORDER[rc.solver.integrator]
    least = {"dt": order - ORDER_MARGIN, "m": 0.0}
    judged = [r for r in rows if r["order"] is not None]
    passed = complete and all(r["order"] > least[r["axis"]] for r in judged)

    study = {"integrator": rc.solver.integrator, "expected_order": order, "order_margin": ORDER_MARGIN,
             "members": runs, "differences": rows, "judged": len(judged), "complete": complete, "passed": passed}
    _write_atomic(json_path, _json(study) + "\n")
    lines = [",".join(STUDY_COLUMNS)]
    lines += [",".join(v if isinstance(v, str) else "" if v is None else _num(v) for v in r.values()) for r in rows]
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    code = EXIT_DIVERGED if not complete else (EXIT_OK if passed else EXIT_VIOLATION)
    status = {EXIT_OK: "pass", EXIT_VIOLATION: "violation", EXIT_DIVERGED: "diverged"}[code]
    print(f"converge: {status}; {len(runs)} runs; judged: {len(judged)}; json={json_path} csv={csv_path}")
    return code


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

    p_conv = sub.add_parser("converge", help="self-convergence study: orders in dt and Cauchy differences in m of its members")
    p_conv.add_argument("config")
    p_conv.add_argument("--modes", type=int, nargs="+", required=True)
    p_conv.add_argument("--dts", type=float, nargs="+", required=True)
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
        return cmd_converge(rc, args.modes, args.dts, args.out_json, args.out_csv)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
