"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wavegalerkin
from wavegalerkin import cli
from wavegalerkin.cli import CSV_COLUMNS
from wavegalerkin.estimates import EnergyTable


def make_cfg(tmp_path, **over):
    cfg = {
        "domain": {"length": 1.0, "bc": "dirichlet"},
        "modes": 8,
        "nonlinearity": {"kind": "cubic"},
        "forcing": {"kind": "zero"},
        "initial": {"x0": {"type": "parabola"}, "x1": {"type": "zero"}},
        "time": {"T": 1.0, "dt": 1e-3, "sample_stride": 10},
        "output": {
            "csv_path": str(tmp_path / "trajectory.csv"),
            "report_path": str(tmp_path / "report.json"),
        },
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


CUSTOM_NEGATED = {
    "kind": "custom",
    "p": 3.0,
    "a0": 1.0,
    "a1": 1.0,
    "b0": 1.0,
    "b1": 0.0,
    "table": {"r": [-10.0, 10.0], "f": [-1.0, -1.0]},
}


def read_rows(csv_path):
    text = csv_path.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    header = text.splitlines()[0]
    return header, rows


def test_verify_pass(tmp_path, capsys):
    rc = cli.main(["verify", write_cfg(tmp_path, make_cfg(tmp_path))])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True and rep["proceed"] is True
    assert rep["poincare"]["lambda_min"] == pytest.approx(9.8696044, rel=1e-6)
    assert rep["nonlinearity"]["passed"] is True
    assert rep["forcing"]["passed"] is True


def test_verify_falsifies_sign_flipped_f(tmp_path, capsys):
    cfg = make_cfg(tmp_path, nonlinearity=CUSTOM_NEGATED)
    rc = cli.main(["verify", write_cfg(tmp_path, cfg)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False and rep["proceed"] is False
    mono = [c for c in rep["nonlinearity"]["checks"] if c["name"] == "monotonicity"]
    assert mono and mono[0]["passed"] is False and mono[0]["witness"] is not None


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_unbounded_checks_are_strict_json(tmp_path):
    # |u|^198 overflows at verifier amplitudes: the failed checks are
    # unbounded, written as "inf", and the overflow prints no warning.
    cfg = make_cfg(tmp_path, modes=16, nonlinearity={"kind": "power_law", "p": 200.0})
    path = write_cfg(tmp_path, cfg)
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    for cmd, out in (("verify", None), ("run", tmp_path / "report.json")):
        proc = subprocess.run(
            [sys.executable, "-m", "wavegalerkin.cli", cmd, path], capture_output=True, env=env, timeout=300
        )
        assert proc.returncode == 1
        assert proc.stderr == b""
        text = proc.stdout.decode() if out is None else out.read_text()
        rep = json.loads(text, parse_constant=_strict_constant)
        ver = rep if out is None else rep["verification"]
        failed = [c for c in ver["nonlinearity"]["checks"] if not c["passed"]]
        assert failed and all(c["worst_violation"] == "inf" for c in failed)


def test_poincare_rejection(tmp_path, capsys):
    cfg = make_cfg(tmp_path, domain={"length": 4.0, "bc": "dirichlet"})
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["poincare"]["passed"] is False

    assert cli.main(["run", path]) == 1
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["monitor"] is None
    assert written["verification"]["proceed"] is False


def test_poincare_override_runs_clean(tmp_path):
    cfg = make_cfg(
        tmp_path,
        domain={"length": 4.0, "bc": "dirichlet", "allow_poincare_violation": True},
        monitors={"gronwall": False, "decay": False},
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verification"]["passed"] is False
    assert rep["verification"]["proceed"] is True
    names = [c["name"] for c in rep["monitor"]["checks"]]
    assert names == ["energy_identity", "conservation"]


def test_run_artifacts(tmp_path):
    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path))]) == 0
    header, rows = read_rows(tmp_path / "trajectory.csv")
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 101
    ts = [float(r["t"]) for r in rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    energies = [float(r["energy"]) for r in rows]
    assert max(energies) - min(energies) <= 1e-9 * (1.0 + energies[0])
    assert all(r["decay_bound"] != "" for r in rows)
    assert float(rows[0]["identity_residual"]) == 0.0

    rep = json.loads((tmp_path / "report.json").read_text())
    assert set(rep) == {
        "verification",
        "monitor",
        "initial",
        "gronwall_params",
        "decay_params",
        "backend",
        "samples",
        "csv_path",
    }
    assert rep["monitor"]["passed"] is True
    assert rep["samples"] == 101
    assert rep["backend"] == "numpy"
    assert rep["gronwall_params"]["C0"] == 0.0 and rep["gronwall_params"]["C1"] == 0.0
    assert rep["decay_params"]["delta"] == pytest.approx(0.25)
    assert 1e-4 < rep["initial"]["x0_tail_norm"] < 1e-3
    assert rep["initial"]["x1_tail_norm"] == 0.0


def test_run_is_deterministic(tmp_path):
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    assert cli.main(["run", path]) == 0
    first_csv = (tmp_path / "trajectory.csv").read_bytes()
    first_rep = (tmp_path / "report.json").read_bytes()
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "trajectory.csv").read_bytes() == first_csv
    assert (tmp_path / "report.json").read_bytes() == first_rep


def test_run_affine_has_no_decay_column(tmp_path):
    cfg = make_cfg(tmp_path, forcing={"kind": "affine", "g1": 0.1, "g2": 0.1, "g0": 0.1})
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    _, rows = read_rows(tmp_path / "trajectory.csv")
    assert all(r["decay_bound"] == "" for r in rows)
    assert all(r["gronwall_envelope"] != "" for r in rows)
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["decay_params"] is None
    assert rep["gronwall_params"]["C0"] > 0.0


def test_run_T_zero_single_sample(tmp_path):
    cfg = make_cfg(tmp_path, time={"T": 0.0, "dt": 1e-3})
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    _, rows = read_rows(tmp_path / "trajectory.csv")
    assert len(rows) == 1 and float(rows[0]["t"]) == 0.0


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        initial={"x0": {"type": "modal", "coeffs": [50.0]}, "x1": {"type": "zero"}},
        time={"T": 5.0, "dt": 0.01},
        blowup_ceiling=1e6,
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert "diverged" in capsys.readouterr().out
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["monitor"]["diverged"] is True
    assert rep["monitor"]["diverged_at"] is not None


def test_output_dir_env_reroots_relative_paths(tmp_path, monkeypatch):
    out_dir = tmp_path / "outs"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out_dir))
    cfg = make_cfg(
        tmp_path,
        time={"T": 0.0, "dt": 1e-3},
        output={"csv_path": "sub/t.csv", "report_path": "r.json"},
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    assert (out_dir / "sub" / "t.csv").exists()
    assert (out_dir / "r.json").exists()


def test_override_lets_runtime_monitor_catch_violation(tmp_path):
    cfg = make_cfg(
        tmp_path,
        nonlinearity=CUSTOM_NEGATED,
        initial={
            "x0": {"type": "parabola"},
            "x1": {"type": "sine", "wavenumber": 1, "amplitude": 2.0},
        },
        # T short enough that the exponential growth (rate k*pi per mode)
        # stays far from roundoff-dominated energy cancellation
        time={"T": 0.5, "dt": 1e-3, "sample_stride": 10},
        verification={"override": True},
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verification"]["passed"] is False
    assert rep["verification"]["proceed"] is True
    assert rep["backend"] == "numpy"
    failed = [c["name"] for c in rep["monitor"]["checks"] if not c["passed"]]
    assert failed == ["decay"]


def test_converge_linear_dt_order(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        nonlinearity={"kind": "linear"},
        initial={"x0": {"type": "sine", "wavenumber": 1}, "x1": {"type": "zero"}},
        time={"T": 1.0, "dt": 1e-3},
    )
    out_json = tmp_path / "c.json"
    out_csv = tmp_path / "c.csv"
    rc = cli.main(
        [
            "converge",
            write_cfg(tmp_path, cfg),
            "--modes",
            "4",
            "--dts",
            "0.004",
            "0.008",
            "--out-json",
            str(out_json),
            "--out-csv",
            str(out_csv),
        ]
    )
    assert rc == 0
    study = json.loads(out_json.read_text())
    assert study["complete"] is True and study["m_ref"] == 8
    errs = {r["dt"]: r["error"] for r in study["rows"]}
    ratio = errs[0.008] / errs[0.004]
    assert 13.0 <= ratio <= 19.0


def test_converge_cubic_monotone_in_modes(tmp_path):
    cfg = make_cfg(
        tmp_path,
        initial={"x0": {"type": "parabola", "amplitude": 0.3}, "x1": {"type": "zero"}},
        time={"T": 1.0, "dt": 1e-3},
    )
    out_json = tmp_path / "c.json"
    out_csv = tmp_path / "c.csv"
    rc = cli.main(
        [
            "converge",
            write_cfg(tmp_path, cfg),
            "--modes",
            "8",
            "16",
            "--dts",
            "0.01",
            "--out-json",
            str(out_json),
            "--out-csv",
            str(out_csv),
        ]
    )
    assert rc == 0
    study = json.loads(out_json.read_text())
    assert study["m_ref"] == 32
    assert all(study["monotone_in_m"].values())
    errors = [r["error"] for r in study["rows"]]
    assert errors[1] < errors[0]
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "modes,dt,error" and len(lines) == 3


@pytest.mark.parametrize(
    "extra_cfg,argv_tail",
    [
        ({"nonlinearity": CUSTOM_NEGATED}, ["--modes", "4", "--dts", "0.01"]),
        ({}, ["--modes", "8", "8", "--dts", "0.01"]),
        ({}, ["--modes", "16", "8", "--dts", "0.01"]),
        ({}, ["--modes", "8", "16", "--dts", "0.01", "--m-ref", "20"]),
        ({}, ["--modes", "4", "--dts", "0.01", "--dt-ref-factor", "5"]),
        ({}, ["--modes", "4", "--dts", "0.01", "0.01"]),
    ],
)
def test_converge_rejections(tmp_path, capsys, extra_cfg, argv_tail):
    cfg = make_cfg(tmp_path, **extra_cfg)
    rc = cli.main(["converge", write_cfg(tmp_path, cfg)] + argv_tail)
    assert rc == 3
    assert "config error" in capsys.readouterr().err


def test_decay_study(tmp_path):
    out_json = tmp_path / "d.json"
    cfg = make_cfg(tmp_path)
    rc = cli.main(["decay", write_cfg(tmp_path, cfg), "--T", "30", "--out-json", str(out_json)])
    assert rc == 0
    study = json.loads(out_json.read_text())
    assert study["T"] == 30.0
    assert study["within_bound"] is True
    assert study["sup_within_radius"] is True
    assert study["decay_params"]["delta"] == pytest.approx(0.25)
    assert study["sup_by_norm_sq"] <= study["asymptotic_radius"]


@pytest.mark.parametrize(
    "over",
    [
        {"forcing": {"kind": "affine", "g0": 0.1, "g1": 0.1}},
        {"nonlinearity": {"kind": "linear"}},
    ],
)
def test_decay_rejects_out_of_scope_configs(tmp_path, capsys, over):
    cfg = make_cfg(tmp_path, **over)
    rc = cli.main(["decay", write_cfg(tmp_path, cfg), "--out-json", str(tmp_path / "d.json")])
    assert rc == 3
    assert "config error" in capsys.readouterr().err


def test_decay_cap_overflow_skips_the_decay_check(tmp_path):
    # p = 50 at amplitude 100: C^r = C^25 overflows a float, so no delta > 0
    # meets delta <= (k-1)/(k^r C^r).  `run` skips the decay check; `decay`
    # has nothing to study and exits 3.  Neither may end in a traceback.
    cfg = make_cfg(
        tmp_path,
        nonlinearity={"kind": "power_law", "p": 50.0},
        initial={"x0": {"type": "parabola", "amplitude": 100.0}, "x1": {"type": "zero"}},
        time={"T": 1e-3, "dt": 1e-5},
    )
    path = write_cfg(tmp_path, cfg)
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "wavegalerkin.cli", *argv], capture_output=True, env=env, timeout=300)

    proc = cli_run("run", path)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode in (0, 1, 2)
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["decay_params"] is None
    assert "decay" not in [c["name"] for c in rep["monitor"]["checks"]]
    want = 2 if rep["monitor"]["diverged"] else (0 if rep["monitor"]["passed"] else 1)
    assert proc.returncode == want
    assert (tmp_path / "trajectory.csv").exists()

    out_json = tmp_path / "d.json"
    proc = cli_run("decay", path, "--out-json", str(out_json))
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 3
    err = proc.stderr.decode().strip()
    assert err.startswith("config error") and "overflows" in err and "\n" not in err
    assert not out_json.exists()


@pytest.mark.parametrize("command", ["run", "decay"])
def test_delta_above_the_comparison_cap_exits_3(tmp_path, capsys, monkeypatch, command):
    # c/2^(r-1) = 0.25 for unforced p = 4 on the unit interval: a delta of
    # 10 would make the decay bound's comparison rewrite invalid.  The cap
    # needs only p and the interval length, so nothing is integrated.
    def no_stepping(*args, **kwargs):
        raise AssertionError("integrate called for a config with an invalid delta")

    cfg = make_cfg(tmp_path, nonlinearity={"kind": "power_law", "p": 4.0}, time={"T": 0.1, "dt": 1e-3}, monitors={"delta": 10.0})
    out_json = tmp_path / "d.json"
    argv = [command, write_cfg(tmp_path, cfg)] + (["--out-json", str(out_json)] if command == "decay" else [])
    with monkeypatch.context() as mp:
        mp.setattr(cli, "integrate", no_stepping)
        assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "c/2^(r-1)" in err and "0.25" in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "trajectory.csv").exists()
    assert not out_json.exists()
    # the default delta meets the cap and runs clean
    cfg["monitors"] = {}
    argv = [command, write_cfg(tmp_path, cfg)] + (["--out-json", str(out_json)] if command == "decay" else [])
    assert cli.main(argv) == 0


def test_config_errors_exit_3(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 3
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["verify", str(bad)]) == 3
    assert "config error" in capsys.readouterr().err

    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path, extra=1))]) == 3
    assert "schema violation" in capsys.readouterr().err

    assert cli.main([]) == 3
    assert "usage" in capsys.readouterr().out


def _no_work(*args, **kwargs):
    raise AssertionError("a command with a bad output path did work before rejecting it")


@pytest.mark.parametrize("command", ["run", "converge", "decay"])
@pytest.mark.parametrize("bad", ["under_a_file", "a_directory"])
def test_unwritable_output_path_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command, bad):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    bad_path = str(blocker / "out.file") if bad == "under_a_file" else str(tmp_path)
    good_json = tmp_path / "study.json"
    if command == "run":
        cfg = make_cfg(tmp_path, output={"csv_path": bad_path, "report_path": str(tmp_path / "report.json")})
        tail = []
    elif command == "converge":
        cfg = make_cfg(tmp_path)
        tail = ["--modes", "4", "--dts", "0.01", "--out-json", str(good_json), "--out-csv", bad_path]
    else:
        cfg = make_cfg(tmp_path)
        tail = ["--out-json", bad_path]
    for name in ("_verification", "integrate", "reference_run"):
        monkeypatch.setattr(cli, name, _no_work)
    assert cli.main([command, write_cfg(tmp_path, cfg)] + tail) == 3
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("output error: ") and "\n" not in err and "Traceback" not in err
    assert captured.out == ""
    assert not (tmp_path / "report.json").exists() and not good_json.exists()


def test_failed_write_exits_3_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # A write that fails after the paths were accepted (here os.replace)
    # is an output error too, and the temp file does not stay behind.
    def no_replace(src, dst):
        raise PermissionError(13, "Permission denied")

    cfg = make_cfg(tmp_path, time={"T": 0.0, "dt": 1e-3})
    path = write_cfg(tmp_path, cfg)
    monkeypatch.setattr(cli.os, "replace", no_replace)
    assert cli.main(["run", path]) == 3
    err = capsys.readouterr().err.strip()
    assert err == f"output error: cannot write {tmp_path / 'trajectory.csv'}: Permission denied"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_converge", lambda rc, *args: seen.append(("converge",) + args) or 0)
    monkeypatch.setattr(cli, "cmd_decay", lambda rc, *args: seen.append(("decay",) + args) or 0)
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    assert cli._build_parser() is cli._build_parser()
    conv = ["converge", path, "--modes", "4", "8", "--dts", "0.01"]
    assert cli.main(conv + ["--dt-ref-factor", "20", "--m-ref", "32", "--out-json", "a.json", "--out-csv", "a.csv"]) == 0
    assert cli.main(["decay", path, "--T", "2", "--out-json", "d.json"]) == 0
    assert cli.main(["verify", path]) == 0
    assert cli.main(["converge", path, "--modes", "4", "--dts", "0.02"]) == 0
    assert cli.main(["decay", path]) == 0
    assert seen == [
        ("converge", [4, 8], [0.01], 32, 20, "a.json", "a.csv"),
        ("decay", 2.0, "d.json"),
        ("converge", [4], [0.02], None, 10, "converge.json", "converge.csv"),
        ("decay", None, "decay.json"),
    ]
    # the shared parser still rejects what it always rejected
    with pytest.raises(SystemExit):
        cli.main(["converge", path, "--dts", "0.01"])
    assert "--modes" in capsys.readouterr().err


# The CSV writer as it was before one row format replaced nine per-value
# calls: each numpy scalar formatted with f"{v:.17g}".
def _reference_csv_text(tbl, bounds):
    def num(v):
        return f"{v:.17g}"

    env, dec, res = bounds["gronwall_envelope"], bounds["decay_bound"], bounds["identity_residual"]
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(tbl)):
        cells = [num(c[i]) for c in (tbl.t, tbl.energy, tbl.kinetic, tbl.potential, tbl.by_norm_sq, tbl.forcing_power)]
        cells += [num(env[i]) if env is not None else "", num(dec[i]) if dec is not None else "", num(res[i])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e16, 123456789.0]


@pytest.mark.parametrize("envelope", [True, False])
@pytest.mark.parametrize("decay", [True, False])
def test_csv_text_matches_the_per_value_formatter(monkeypatch, envelope, decay):
    rng = np.random.default_rng(8)
    n = 400

    def column():
        # random bit patterns: every exponent, subnormals, and NaN payloads
        c = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64).copy()
        c[rng.choice(n, len(SPECIAL_VALUES), replace=False)] = SPECIAL_VALUES
        return c

    tbl = EnergyTable(t=column(), kinetic=column(), potential=column(), energy=column(), by_norm_sq=column(), forcing_power=column())
    bounds = {
        "gronwall_envelope": column() if envelope else None,
        "decay_bound": column() if decay else None,
        "identity_residual": column(),
    }
    monkeypatch.setattr(cli, "sample_table", lambda traj, gp, dp: bounds)
    text = cli._csv_text(SimpleNamespace(energy=tbl), None, None)
    assert text == _reference_csv_text(tbl, bounds)
    rows = text.splitlines()[1:]
    assert len(rows) == n and all(r.count(",") == len(CSV_COLUMNS) - 1 for r in rows)


def _table(r, f):
    return dict(CUSTOM_NEGATED, table={"r": r, "f": f})


@pytest.mark.parametrize(
    "table, where",
    [
        (_table([-10.0, True, 10.0], [1.0, 2.0, 3.0]), "nonlinearity/table/r/1"),
        (_table([-10.0, 0.0, 10.0], [1.0, 2.0, "3.0"]), "nonlinearity/table/f/2"),
        (_table([None, 0.0, 10.0], [1.0, 2.0, 3.0]), "nonlinearity/table/r/0"),
        (_table([-10.0, 0.0, 10.0], [1.0, [2.0], 3.0]), "nonlinearity/table/f/1"),
        (_table([-10.0, 5.0, 5.0, 10.0], [1.0, 2.0, 3.0, 4.0]), "nonlinearity/table/r/2"),
        (_table([-10.0, 0.0, 10.0], [1.0, 2.0]), "nonlinearity/table"),
        (_table([-10.0, 0.0, 10.0], [1.0, float("nan"), 3.0]), "nonlinearity/table/f/1"),
        (_table([-10.0, 0.0, 10**400], [1.0, 2.0, 3.0]), "nonlinearity/table/r/2"),
    ],
    ids=["boolean", "string", "null", "nested", "not_increasing", "lengths", "nan", "huge_int"],
)
@pytest.mark.parametrize("cmd", ["verify", "run"])
def test_bad_table_entries_exit_3_naming_the_path(tmp_path, capsys, cmd, table, where):
    path = write_cfg(tmp_path, make_cfg(tmp_path, nonlinearity=table))
    assert cli.main([cmd, path]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert f" at {where}:" in captured.err
    assert "np." not in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "report.json").exists()


def test_oracle_subcommand_is_hidden_but_works(tmp_path, capsys):
    rc = cli.main(["oracle", "bernoulli", "--delta", "0.05", "--r", "2", "--w0", "6", "--t", "0.5", "1.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    for closed, dense in zip(out["closed_form"], out["dense"]):
        assert closed == pytest.approx(dense, rel=1e-6)

    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "{verify,run,converge,decay}" in help_text
    assert "oracle" not in help_text


def _project_scripts():
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]


def test_console_script(tmp_path):
    # Runs the declared entry point the way an installed console script
    # does, so it is checked without installing the package.
    module, func = _project_scripts()["wavegalerkin"].split(":")
    assert getattr(importlib.import_module(module), func) is cli.main
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code, "verify", path], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b'"passed": true' in proc.stdout


def test_run_does_not_import_numba(tmp_path):
    # A broken numba installation, whose import raises something other than
    # ImportError, must not stop the CLI: nothing in the package imports it.
    stub = tmp_path / "stub" / "numba"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise RuntimeError("broken numba")\n')
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub.parent), src_dir]))
    path = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 0.1, "dt": 1e-3, "sample_stride": 10}))
    proc = subprocess.run([sys.executable, "-m", "wavegalerkin.cli", "run", path], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads((tmp_path / "report.json").read_text())["backend"] == "numpy"


def test_readme_library_snippet_runs_on_the_package_root():
    # The package root exports only a few names; the README example must
    # keep running on them, and every exported name must resolve.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    check = "\nimport wavegalerkin\nfor name in wavegalerkin.__all__:\n    getattr(wavegalerkin, name)\n"
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", snippet + check], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.skipif(shutil.which("wavegalerkin") is None, reason="wavegalerkin console script not on PATH")
def test_installed_console_script(tmp_path):
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    proc = subprocess.run([shutil.which("wavegalerkin"), "verify", path], capture_output=True, timeout=300)
    assert proc.returncode == 0
    assert b'"passed": true' in proc.stdout
