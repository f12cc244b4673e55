"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import csv
import importlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wavegalerkin
from wavegalerkin import cli, estimates, kernels
from wavegalerkin.cli import CSV_BLOCK_ROWS, CSV_COLUMNS
from wavegalerkin.config import ConfigError, load_config, resolve_initial
from wavegalerkin.estimates import EnergyTable, derive_decay, derive_gronwall, monitor, sample_table
from wavegalerkin.nonlinearity import verify_conditions
from wavegalerkin.solver import integrate
from wavegalerkin.spectral import DIRICHLET, FFT_MIN_MODES, PERIODIC_MEAN_ZERO, build_operator


ROOT = Path(__file__).resolve().parent.parent


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
    assert rep["passed"] is True
    assert set(rep) == {"passed", "nonlinearity", "forcing"}
    assert rep["nonlinearity"]["checks"][-1] == {"name": "poincare", "passed": True}
    assert rep["nonlinearity"]["passed"] is True
    assert rep["forcing"]["passed"] is True


def test_verify_falsifies_sign_flipped_f(tmp_path, capsys):
    cfg = make_cfg(tmp_path, nonlinearity=CUSTOM_NEGATED)
    rc = cli.main(["verify", write_cfg(tmp_path, cfg)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    mono = [c for c in rep["nonlinearity"]["checks"] if c["name"] == "monotonicity"]
    assert mono and mono[0]["passed"] is False and mono[0]["witness"] is not None


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# A custom F is decided on its table's range.  At p=200 the right side of
# coercivity, |u|^200 at u = 100, overflows a float: the witness says "inf".
CUSTOM_P200 = dict(CUSTOM_NEGATED, p=200.0, a1=0.0, table={"r": [-100.0, 100.0], "f": [1.0, 1.0]})


def test_unbounded_checks_are_strict_json(tmp_path):
    # The overflow prints no warning, and the failed checks name where they
    # fail: coercivity at the range's end, growth at F(u) = u's crossing
    # with |u|^199, between knots.
    cfg = make_cfg(tmp_path, modes=16, nonlinearity=CUSTOM_P200)
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
        assert ver["nonlinearity"]["range"] == [-100.0, 100.0]
        checks = {c["name"]: c for c in ver["nonlinearity"]["checks"]}
        assert checks["monotonicity"] == {"name": "monotonicity", "passed": True}
        coercivity, growth = checks["coercivity"]["witness"], checks["growth"]["witness"]
        assert abs(coercivity["u"]) == 100.0 and coercivity["rhs"] == "inf" and coercivity["lhs"] == 10000.0
        assert 0.0 < abs(growth["u"]) < 1.0 and growth["lhs"] > growth["rhs"]


@pytest.mark.parametrize("p", [200.0, 320.0])
def test_builtin_conditions_are_decided_at_any_p(tmp_path, capsys, p):
    # |u|^p overflows at verifier amplitudes, but a built-in power law meets
    # its conditions as identities: they are decided, not drawn.
    cfg = make_cfg(tmp_path, modes=16, nonlinearity={"kind": "power_law", "p": p})
    assert cli.main(["verify", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_strict_constant)
    assert rep["passed"] is True
    checks = rep["nonlinearity"]["checks"]
    assert [c["name"] for c in checks] == ["monotonicity", "growth", "coercivity", "poincare"]
    assert all(c == {"name": c["name"], "passed": True} for c in checks)
    norm, pairing = rep["forcing"]["checks"]
    assert norm == {"name": "norm_bound", "passed": True}
    assert pairing == {"name": "lipschitz_pairing", "passed": True}


def test_affine_g0_below_the_origin_norm_fails_verify(tmp_path, capsys):
    # The projected constant 0.3 has H norm ~0.2962 > the declared 0.2.
    forcing = {"kind": "affine", "g1": 0.1, "g2": 0.1, "g0": 0.2, "constant": 0.3}
    cfg = make_cfg(tmp_path, modes=16, forcing=forcing)
    assert cli.main(["verify", write_cfg(tmp_path, cfg)]) == 1
    rep = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in rep["forcing"]["checks"]}
    norm = checks["norm_bound"]
    assert norm["passed"] is False and set(norm) == {"name", "passed", "witness"}
    assert norm["witness"]["origin_norm"] - norm["witness"]["g0"] == pytest.approx(0.0962, abs=1e-3)
    assert norm["witness"] == {"origin_norm": pytest.approx(0.2962, abs=1e-3), "g0": 0.2}
    assert checks["lipschitz_pairing"] == {"name": "lipschitz_pairing", "passed": True}


def test_custom_table_report_is_the_decided_one(tmp_path, capsys):
    # verification.samples and seed are accepted and ignored.
    cfg = make_cfg(tmp_path, modes=16, nonlinearity=CUSTOM_NEGATED, verification={"samples": 300}, seed=11)
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    rc = load_config(path)
    op = build_operator(rc.domain, rc.modes)
    assert rep["nonlinearity"] == json.loads(cli._json(verify_conditions(rc.nl, op).to_dict()))
    assert rep["nonlinearity"]["range"] == [-10.0, 10.0]
    assert all(set(c) <= {"name", "passed", "witness"} for c in rep["nonlinearity"]["checks"])
    mono = rep["nonlinearity"]["checks"][0]
    assert mono["witness"] == {"knot": 0, "u": -10.0, "f": -1.0}
    assert "seed" not in rep["nonlinearity"] and "seed" not in rep["forcing"]


def test_poincare_rejection(tmp_path, capsys):
    cfg = make_cfg(tmp_path, domain={"length": 4.0, "bc": "dirichlet"})
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    poincare = rep["nonlinearity"]["checks"][-1]
    assert poincare == {"name": "poincare", "passed": False, "witness": {"lambda_min": pytest.approx((math.pi / 4.0) ** 2)}}

    assert cli.main(["run", path]) == 1
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["monitor"] is None
    assert written["verification"] == rep
    assert not (tmp_path / "trajectory.csv").exists()


def test_refused_run_removes_the_previous_csv(tmp_path, capsys, monkeypatch):
    # A report that says no trajectory was produced must not sit next to an
    # earlier run's CSV.
    csv_path = tmp_path / "trajectory.csv"
    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 0.01, "dt": 1e-3}))]) == 0
    assert csv_path.exists()
    refused = write_cfg(tmp_path, make_cfg(tmp_path, domain={"length": 4.0, "bc": "dirichlet"}))
    assert cli.main(["run", refused]) == 1
    assert not csv_path.exists()
    assert json.loads((tmp_path / "report.json").read_text())["monitor"] is None
    # a CSV that cannot be removed is an output error
    csv_path.write_text("stale")

    def no_unlink(self, missing_ok=False):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.Path, "unlink", no_unlink)
    capsys.readouterr()
    assert cli.main(["run", refused]) == 3
    assert capsys.readouterr().err == f"output error: cannot remove {csv_path}: Permission denied\n"


def test_initial_energy_past_the_float_range_exits_3_and_leaves_no_artifact(tmp_path, capsys):
    # E(0) of a parabola with amplitude 1e100 under the cubic F overflows a
    # float: no bound starts from it, and no earlier run's CSV or report may
    # stay at the paths.
    good = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 0.01, "dt": 1e-3}))
    assert cli.main(["run", good]) == 0
    assert (tmp_path / "trajectory.csv").exists() and (tmp_path / "report.json").exists()
    initial = {"x0": {"type": "parabola", "amplitude": 1e100}, "x1": {"type": "zero"}}
    bad = write_cfg(tmp_path, make_cfg(tmp_path, initial=initial, time={"T": 0.01, "dt": 1e-3}), name="bad.json")
    capsys.readouterr()
    assert cli.main(["run", bad]) == 3
    err = capsys.readouterr().err
    assert err == "config error: the initial data x0, x1 have energy E(0) = inf; the bounds need 2E(0) to be a finite float\n"
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "forcing, constants",
    [
        ({"kind": "affine", "g2": 1e160}, "g0 = 0, g1 = 0, g2 = 1e+160"),
        ({"kind": "affine", "g0": 1e160, "constant": 1.0}, "g0 = 1e+160, g1 = 0, g2 = 0"),
        ({"kind": "affine", "g1": 1e154}, "g0 = 0, g1 = 1e+154, g2 = 0"),
    ],
    ids=["g2", "g0", "g1"],
)
def test_gronwall_constants_past_the_float_range_exit_3_and_leave_no_artifact(tmp_path, capsys, forcing, constants):
    # g0^2, g1^2 or g2^2 past the float range leaves no finite envelope: like
    # an E(0) past it, that is a config error, and no earlier run's CSV or
    # report may stay at the paths.
    good = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 0.01, "dt": 1e-3}))
    assert cli.main(["run", good]) == 0
    bad = write_cfg(tmp_path, make_cfg(tmp_path, forcing=forcing, time={"T": 0.01, "dt": 1e-3}), name="bad.json")
    capsys.readouterr()
    assert cli.main(["run", bad]) == 3
    err = capsys.readouterr().err
    assert err == f"config error: the forcing constants {constants} take the Gronwall constants C0, C1 past the float range\n"
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "over",
    [
        {"forcing": {"kind": "affine", "g0": 1e160, "constant": 1.0}},
        {"initial": {"x0": {"type": "parabola", "amplitude": 1e100}, "x1": {"type": "zero"}}},
    ],
    ids=["gronwall", "energy"],
)
def test_a_rejected_run_takes_no_step(tmp_path, capsys, monkeypatch, over):
    # Every constant a bound starts from is checked before the first step:
    # a 20,000-step run that no bound can judge exits 3 without stepping,
    # and no earlier run's CSV or report stays at the paths.
    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 0.01, "dt": 1e-3}))]) == 0

    def no_steps(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(kernels, "run_numpy", no_steps)
    bad = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 20.0, "dt": 1e-3}, **over), name="bad.json")
    capsys.readouterr()
    assert cli.main(["run", bad]) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "report.json").exists()


def _workloads():
    """``layerbench/workloads.py``, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("layerbench_workloads", ROOT / "layerbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.modules.pop(spec.name, None)
    return module


@pytest.mark.parametrize("workload", ["long_small", "wide_modes", "dense_output", "short_mix"])
def test_the_envelope_starts_from_the_csv_energy_bit_for_bit(tmp_path, monkeypatch, workload):
    # The Gronwall constants are checked before stepping, from E(0) of the
    # initial state alone, but E_init = 2E(0) is the CSV's first energy, bit
    # for bit, and so is the decay bound's C.  Every config of the
    # benchmark's short_mix seed and the first of each other workload.
    workloads = _workloads()
    specs = workloads.generate(workload, 500)
    paths = workloads.write_configs(specs if workload == "short_mix" else specs[:1], tmp_path / "cfg")
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path))
    for path in paths:
        # short_mix's unforced Verlet runs can fail conservation (exit 1)
        assert cli.main(["run", str(path)]) in (0, 1), path
        output = json.loads(path.read_text())["output"]
        report = json.loads((tmp_path / output["report_path"]).read_text())
        _, rows = read_rows(tmp_path / output["csv_path"])
        e0 = float(rows[0]["energy"])
        assert report["gronwall_params"]["E_init"] == 2.0 * e0, path
        if report["decay_params"] is not None:
            assert report["decay_params"]["C"] == 2.0 * e0, path


def _run_artifacts(tmp_path, **over) -> tuple[bytes, bytes]:
    """The CSV and report bytes of a passing ``run`` of ``make_cfg(**over)``."""
    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path, **over))]) == 0
    return (tmp_path / "trajectory.csv").read_bytes(), (tmp_path / "report.json").read_bytes()


@pytest.mark.parametrize("named, p", [("cubic", 4), ("linear", 2)])
@pytest.mark.parametrize("modes", [8, FFT_MIN_MODES])
@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC_MEAN_ZERO])
def test_a_named_power_law_runs_as_the_power_law_at_its_p(tmp_path, bc, modes, named, p):
    # linear and cubic are names for p = 2 and p = 4: the same problem takes
    # the same path, on dense products and on the FFT pair
    common = dict(domain={"length": 1.0, "bc": bc}, modes=modes, time={"T": 0.01, "dt": 1e-3})
    by_name = _run_artifacts(tmp_path, nonlinearity={"kind": named}, **common)
    by_p = _run_artifacts(tmp_path, nonlinearity={"kind": "power_law", "p": p}, **common)
    assert by_p == by_name


@pytest.mark.parametrize("g0", [0.0, 0.5])
def test_all_zero_affine_forcing_gets_the_unforced_checks(tmp_path, g0):
    # g with g1 = g2 = constant = 0 is zero, whatever g0 states: the run is
    # unforced, with conservation and decay in place of the envelope
    zero = _run_artifacts(tmp_path, forcing={"kind": "zero"}, time={"T": 0.1, "dt": 1e-3})
    affine = _run_artifacts(tmp_path, forcing={"kind": "affine", "g0": g0}, time={"T": 0.1, "dt": 1e-3})
    rep = json.loads(affine[1])
    assert [c["name"] for c in rep["monitor"]["checks"]] == ["energy_identity", "conservation", "decay"]
    assert rep["gronwall_params"]["C0"] == rep["gronwall_params"]["C1"] == 0.0
    assert affine == zero


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
        "absorbing_ball",
        "backend",
        "samples",
        "csv_path",
    }
    assert rep["monitor"]["passed"] is True
    assert [c["name"] for c in rep["monitor"]["checks"]] == ["energy_identity", "conservation", "decay"]
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
    assert [c["name"] for c in rep["monitor"]["checks"]] == ["energy_identity", "gronwall"]


# The worst violation of each check, recomputed from a CSV row.
CSV_VIOLATION = {
    "gronwall": lambda row: 2.0 * float(row["energy"]) - float(row["gronwall_envelope"]),
    "decay": lambda row: float(row["By_norm_sq"]) - float(row["decay_bound"]),
    "energy_identity": lambda row: float(row["identity_residual"]),
}


@pytest.mark.parametrize(
    "forcing, judged",
    [({"kind": "zero"}, ["energy_identity", "decay"]), ({"kind": "affine", "g1": 0.1, "g2": 0.1, "g0": 0.1}, ["energy_identity", "gronwall"])],
    ids=["unforced", "forced"],
)
def test_the_verdict_judges_the_csv_numbers(tmp_path, monkeypatch, forcing, judged):
    # One run evaluates each bound once, and the monitors judge the very
    # numbers the CSV writes: %.17g round-trips, so they compare with ==.
    calls = dict.fromkeys(["identity_residuals", "gronwall_envelope", "decay_bound"], 0)
    for name in calls:

        def spy(*args, _name=name, _fn=getattr(estimates, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(estimates, name, spy)
    assert cli.main(["run", write_cfg(tmp_path, make_cfg(tmp_path, forcing=forcing))]) == 0
    assert calls == {"identity_residuals": 1, "gronwall_envelope": 1, "decay_bound": int("decay" in judged)}

    _, rows = read_rows(tmp_path / "trajectory.csv")
    by_t = {float(r["t"]): r for r in rows}
    checks = json.loads((tmp_path / "report.json").read_text())["monitor"]["checks"]
    checks = [c for c in checks if c["name"] in CSV_VIOLATION]
    assert [c["name"] for c in checks] == judged
    for c in checks:
        assert c["worst_violation"] == CSV_VIOLATION[c["name"]](by_t[c["t_worst"]]), c["name"]


def _cubic_table(reach, entries=201):
    """A custom F: the table of f = 3 r^2 on [-reach, reach], with constants that hold on it."""
    r = np.linspace(-reach, reach, entries)
    return {"kind": "custom", "p": 4.0, "a0": 1.0, "a1": 1.0, "b0": 1.0, "b1": 0.0, "table": {"r": r.tolist(), "f": (3.0 * r * r).tolist()}}


@pytest.mark.parametrize("amplitude, passed", [(0.1, True), (1.0, False)])
def test_run_checks_that_samples_stay_in_the_table_range(tmp_path, capsys, amplitude, passed):
    # The table's conditions hold on [-0.1, 0.1]; a parabola of amplitude 1
    # peaks at 0.25, past the range, so the run exits 1 on the range check.
    cfg = make_cfg(
        tmp_path,
        nonlinearity=_cubic_table(0.1),
        initial={"x0": {"type": "parabola", "amplitude": amplitude}, "x1": {"type": "zero"}},
        time={"T": 0.1, "dt": 1e-3, "sample_stride": 10},
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == (0 if passed else 1)
    assert ("pass" if passed else "violation") in capsys.readouterr().out
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verification"]["passed"] is True
    assert rep["verification"]["nonlinearity"]["range"] == [-0.1, 0.1]
    checks = {c["name"]: c for c in rep["monitor"]["checks"]}
    assert list(checks) == ["energy_identity", "conservation", "decay", "table_range"]
    reach = checks["table_range"]
    assert reach["passed"] is passed and reach["samples"] == 11
    assert reach["note"] == "checked at the recorded samples only, not at the steps between them"
    assert all(c["passed"] for name, c in checks.items() if name != "table_range")
    if not passed:
        assert reach["worst_violation"] == pytest.approx(0.15, abs=1e-3) and reach["t_worst"] == 0.0
    # a built-in F has no range to leave
    assert "note" not in checks["conservation"]


def test_run_past_the_envelope_overflow_passes_gronwall_silently(tmp_path, capsys):
    # C0 = 2 c_tilde g1^2 = 8e4, so the envelope overflows from t = 0.009:
    # 2E stays finite under it, and the run passes without a warning.
    cfg = make_cfg(tmp_path, forcing={"kind": "affine", "g1": 100.0, "g0": 0.0}, time={"T": 0.02, "dt": 1e-3, "sample_stride": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["gronwall_params"]["C0"] == pytest.approx(8e4)
    assert {c["name"]: c["passed"] for c in rep["monitor"]["checks"]} == {"energy_identity": True, "gronwall": True}
    _, rows = read_rows(tmp_path / "trajectory.csv")
    assert rows[8]["gronwall_envelope"] != "inf" and rows[9]["gronwall_envelope"] == "inf"


def test_run_with_an_overflowing_decay_power_has_no_decay_bound(tmp_path, capsys):
    # At p = 2060 the comparison cap c / 2^(r-1) overflows; derive_decay
    # returns None and the run exits by its monitors alone.
    cfg = make_cfg(tmp_path, nonlinearity={"kind": "power_law", "p": 2060}, time={"T": 0.01, "dt": 1e-3})
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", path]) == 0
    code = cli.main(["run", path])
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if rep["monitor"]["passed"] else 1)
    assert rep["decay_params"] is None and rep["absorbing_ball"] is None
    assert "decay" not in [c["name"] for c in rep["monitor"]["checks"]]


@pytest.mark.parametrize("cmd", ["verify", "run"])
def test_sine_wavenumber_past_the_float_range_exits_3(tmp_path, capsys, cmd):
    x0 = {"type": "sine", "wavenumber": 10**400}
    cfg = make_cfg(tmp_path, initial={"x0": x0, "x1": {"type": "zero"}})
    assert cli.main([cmd, write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid initial data at initial/x0/wavenumber:")
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("cmd", ["verify", "run"])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic_mean_zero"])
def test_overflowing_eigenvalues_exit_3_without_a_warning(tmp_path, capsys, cmd, bc):
    cfg = make_cfg(tmp_path, domain={"length": 1e-300, "bc": bc})
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([cmd, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: length=1e-300 is too small")
    assert not (tmp_path / "report.json").exists()


def _no_generator(*args, **kwargs):
    raise AssertionError("verify and run draw nothing")


@pytest.mark.parametrize(
    "nonlinearity",
    [{"kind": "linear"}, {"kind": "cubic"}, {"kind": "power_law", "p": 3.3}, _cubic_table(40.0)],
    ids=["linear", "cubic", "power_law", "custom"],
)
@pytest.mark.parametrize("forcing", [{"kind": "zero"}, {"kind": "affine", "g1": 0.1, "g2": 0.1, "g0": 0.2, "constant": 0.1}], ids=["zero", "affine"])
def test_verify_and_run_call_no_random_generator(tmp_path, capsys, monkeypatch, nonlinearity, forcing):
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    cfg = make_cfg(tmp_path, nonlinearity=nonlinearity, forcing=forcing, time={"T": 0.1, "dt": 1e-3, "sample_stride": 10})
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["verify", path]) == 0
    assert cli.main(["run", path]) == 0


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


def test_runtime_monitor_catches_a_falsified_table(tmp_path):
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
    )
    path = write_cfg(tmp_path, cfg)
    # The CLI refuses to step a config whose conditions are falsified ...
    assert cli.main(["run", path]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verification"]["passed"] is False
    assert rep["monitor"] is None
    # ... and stepping it anyway through the library, the decay monitor
    # catches the growth that the falsified conditions allow, which also
    # carries the field past the table's range.
    rc = load_config(path)
    op = build_operator(rc.domain, rc.modes)
    traj = integrate(resolve_initial(rc, op).state, rc.solver, op, rc.nl, rc.fs)
    e0 = float(traj.energy.energy[0])
    report = monitor(traj, sample_table(traj, derive_gronwall(rc.nl, rc.fs, op, e0), derive_decay(rc.nl, rc.fs, op, e0)))
    assert [c.name for c in report.checks if not c.passed] == ["decay", "table_range"]


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
    # A long unforced run is a `run` whose config sets time.T.
    cfg = make_cfg(tmp_path, time={"T": 30.0, "dt": 1e-3, "sample_stride": 10})
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["samples"] == 3001
    assert [c["name"] for c in rep["monitor"]["checks"]] == ["energy_identity", "conservation", "decay"]
    assert rep["monitor"]["passed"] is True
    assert rep["decay_params"]["delta"] == pytest.approx(0.25)
    ball = rep["absorbing_ball"]
    assert ball["sup_within_radius"] is True
    assert ball["sup_by_norm_sq"] <= ball["asymptotic_radius"]


@pytest.mark.parametrize(
    "over",
    [
        {"forcing": {"kind": "affine", "g0": 0.1, "g1": 0.1}},
        {"nonlinearity": {"kind": "linear"}},
    ],
)
def test_run_has_no_decay_bound_out_of_scope(tmp_path, over):
    # Forced runs and p <= 2 have no decay bound: `run` checks what applies
    # and writes neither the decay constants nor the absorbing ball.
    cfg = make_cfg(tmp_path, **over)
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["decay_params"] is None
    assert rep["absorbing_ball"] is None
    assert "decay" not in [c["name"] for c in rep["monitor"]["checks"]]


@pytest.mark.parametrize(
    "p, T, dt",
    [(50.0, 1e-3, 1e-5), (2.02, 0.01, 1e-4)],
    ids=["cap_overflow", "radius_overflow"],
)
def test_decay_at_the_float_range_edges_exits_by_its_verdict(tmp_path, p, T, dt):
    # Amplitude 100 takes both ends of the float range.  At p = 50, C^r =
    # C^25 overflows, so no delta > 0 meets delta <= (k-1)/(k^r C^r): `run`
    # skips the decay check and writes no absorbing ball.  At p = 2.02,
    # delta^(-1/(r-1)) = delta^(-100) overflows: the absorbing radius is
    # unbounded.  Neither case may end in a traceback, and each exits by its
    # verdict.
    cfg = make_cfg(
        tmp_path,
        nonlinearity={"kind": "power_law", "p": p},
        initial={"x0": {"type": "parabola", "amplitude": 100.0}, "x1": {"type": "zero"}},
        time={"T": T, "dt": dt},
    )
    path = write_cfg(tmp_path, cfg)
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "wavegalerkin.cli", "run", path], capture_output=True, env=env, timeout=300)
    assert b"Traceback" not in proc.stderr
    rep = json.loads((tmp_path / "report.json").read_text())
    mon = rep["monitor"]
    assert proc.returncode == (2 if mon["diverged"] else (0 if mon["passed"] else 1))
    assert (tmp_path / "trajectory.csv").exists()
    if p == 50.0:
        assert rep["decay_params"] is None and rep["absorbing_ball"] is None
        assert "decay" not in [c["name"] for c in mon["checks"]]
    else:
        assert "decay" in [c["name"] for c in mon["checks"]]
        ball = rep["absorbing_ball"]
        assert ball["asymptotic_radius"] == "inf" and ball["sup_within_radius"] is True
        assert proc.returncode == 0 and proc.stderr == b""


def test_run_exits_by_every_check_on_an_unforced_verlet_run(tmp_path):
    # This unforced Verlet run stays deep inside its absorbing ball but fails
    # the energy identity and conservation: the exit code is the monitor's
    # verdict, and the ball is only reported.
    cfg = make_cfg(
        tmp_path,
        modes=16,
        nonlinearity={"kind": "power_law", "p": 3.32},
        initial={"x0": {"type": "parabola", "amplitude": 40.0}, "x1": {"type": "zero"}},
        time={"T": 0.2, "dt": 1e-3, "sample_stride": 1, "integrator": "stormer_verlet"},
    )
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["monitor"]["passed"] is False
    failed = [c["name"] for c in rep["monitor"]["checks"] if not c["passed"]]
    assert failed == ["energy_identity", "conservation"]
    ball = rep["absorbing_ball"]
    assert ball["sup_within_radius"] is True
    assert ball["sup_by_norm_sq"] == pytest.approx(5.40, rel=1e-2)
    assert ball["asymptotic_radius"] == pytest.approx(1.29e8, rel=1e-2)


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


# Configs that no run can use, each with the message that rejects it.
UNUSABLE_CONFIGS = {
    "verlet_with_g2": (
        {
            "forcing": {"kind": "affine", "g1": 0.1, "g2": 0.1},
            "time": {"T": 0.01, "dt": 1e-3, "integrator": "stormer_verlet"},
        },
        "stormer_verlet requires velocity-independent forcing (g2 = 0)",
    ),
    "modal_inf": (
        {"initial": {"x0": {"type": "modal", "coeffs": [1.0, math.inf]}, "x1": {"type": "zero"}}},
        "invalid initial data at initial/x0/coeffs/1: inf is not a finite number",
    ),
    "modal_nan": (
        {"initial": {"x0": {"type": "zero"}, "x1": {"type": "modal", "coeffs": [math.nan]}}},
        "invalid initial data at initial/x1/coeffs/0: nan is not a finite number",
    ),
    "modal_huge_int": (
        {"initial": {"x0": {"type": "modal", "coeffs": [0.5, 10**400]}, "x1": {"type": "zero"}}},
        f"invalid initial data at initial/x0/coeffs/1: {10**400!r} is not a finite number",
    ),
    "amplitude_inf": (
        {"initial": {"x0": {"type": "parabola", "amplitude": -math.inf}, "x1": {"type": "zero"}}},
        "invalid initial data at initial/x0/amplitude: -inf is not a finite number",
    ),
    "history_over_budget": (
        {"time": {"T": 1e15, "dt": 1}},
        "sample history of 1.28e+17 bytes exceeds the 1.07e+09-byte budget: raise time/sample_stride or shorten time/T",
    ),
    "step_count_overflow": ({"time": {"T": 1e300, "dt": 1e-300}}, "T/dt overflows a float"),
}


@pytest.mark.parametrize("name", list(UNUSABLE_CONFIGS))
@pytest.mark.parametrize("cmd", ["verify", "run"])
def test_unusable_configs_exit_3_before_verification(tmp_path, capsys, monkeypatch, cmd, name):
    # Python's json reads Infinity and NaN, and Verlet cannot take a
    # velocity-dependent g: each is a config error before any work, not a
    # failure after verification has printed or written its verdict.
    over, message = UNUSABLE_CONFIGS[name]
    for attr in ("_verification", "integrate"):
        monkeypatch.setattr(cli, attr, _no_work)
    assert cli.main([cmd, write_cfg(tmp_path, make_cfg(tmp_path, **over))]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "report.json").exists()


def test_history_over_budget_exits_3_in_a_fresh_process_and_allocates_nothing(tmp_path):
    # The sample history of this config (128 PB) once reached np.empty after
    # verification had passed, and died there with a traceback and exit 1.
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    path = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 1e15, "dt": 1}))
    proc = subprocess.run([sys.executable, "-m", "wavegalerkin.cli", "run", path], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert "time/sample_stride" in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "trajectory.csv").exists()
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="time/sample_stride"):
            load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# At dt 1e-9 the members' histories (1e9 records) reached np.empty in
# oracle.reference_run, after verification, and died there with a traceback
# and exit 1.  At dt 1e-6 with m_ref 128 only the reference's history is
# over the budget.
@pytest.mark.parametrize("argv_tail", [["--dts", "1e-9"], ["--dts", "1e-6", "--m-ref", "128"]], ids=["members", "reference"])
def test_converge_history_over_budget_exits_3_and_allocates_nothing(tmp_path, capsys, monkeypatch, argv_tail):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_verification", lambda rc: pytest.fail("verified before checking the histories"))
    path = write_cfg(tmp_path, make_cfg(tmp_path, time={"T": 1.0, "dt": 1e-3, "sample_stride": 1}))
    tracemalloc.start()
    try:
        code = cli.main(["converge", path, "--modes", "4", "8"] + argv_tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: sample history of ") and captured.err.count("\n") == 1
    assert "time/sample_stride" in captured.err and captured.out == ""
    assert not (tmp_path / "converge.json").exists() and not (tmp_path / "converge.csv").exists()
    assert peak < 1 << 20


# A value for each nonlinearity key that some kind does not take.
STATED_KEYS = {"p": 3.0, "a0": 0.01, "a1": 0.5, "b0": 50.0, "b1": 0.5, "table": {"r": [-1.0, 1.0], "f": [-3.0, 3.0]}}


@pytest.mark.parametrize("cmd", ["verify", "run"])
@pytest.mark.parametrize("kind", ["linear", "cubic", "power_law"])
def test_builtin_kinds_reject_stated_constants(tmp_path, capsys, monkeypatch, kind, cmd):
    # A built-in kind has its own constants (and, but for power_law, its own
    # p), so a stated one would be dropped and its claim never checked.
    for attr in ("_verification", "integrate"):
        monkeypatch.setattr(cli, attr, _no_work)
    for key, value in STATED_KEYS.items():
        if kind == "power_law" and key == "p":
            continue
        nl = {"kind": kind, key: value} if kind != "power_law" else {"kind": kind, "p": 4.0, key: value}
        assert cli.main([cmd, write_cfg(tmp_path, make_cfg(tmp_path, nonlinearity=nl))]) == 3, key
        captured = capsys.readouterr()
        assert captured.err == f"config error: kind {kind!r} takes no nonlinearity/{key}\n"
        assert captured.out == ""
        assert not (tmp_path / "report.json").exists()


# Each removed config key, a value a config might set it to, and where the
# schema check rejects it.
REMOVED_KEYS = [
    ("monitors.energy_identity", False, "<root>"),
    ("monitors.gronwall", False, "<root>"),
    ("monitors.conservation", False, "<root>"),
    ("monitors.decay", False, "<root>"),
    ("monitors.tolerances.identity_scale", 1e300, "<root>"),
    ("monitors.tolerances.envelope_rel", 1e300, "<root>"),
    ("monitors.tolerances.conservation_rel", 1e300, "<root>"),
    ("monitors.tolerances.decay_rel", 1e300, "<root>"),
    ("monitors.k", 1e6, "<root>"),
    ("monitors.delta", 10.0, "<root>"),
    ("verification.override", True, "verification"),
    ("domain.allow_poincare_violation", True, "domain"),
]


@pytest.mark.parametrize("key, value, where", REMOVED_KEYS, ids=[key for key, _, _ in REMOVED_KEYS])
def test_check_switches_and_tolerances_are_rejected(tmp_path, capsys, key, value, where):
    # The problem alone decides whether a run goes ahead, which checks run
    # and at what tolerance: a config that tries to excuse a falsified
    # condition, switch a check off, loosen it or pick another decay bound
    # is rejected.
    cfg = make_cfg(tmp_path)
    *sections, name = key.split(".")
    section = cfg
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: config schema violation at {where}: Additional properties are not allowed")
    assert not (tmp_path / "report.json").exists()


def test_usage_errors_exit_3_without_traceback(tmp_path):
    # argparse's own code for a usage error is 2, which here means "diverged".
    src_dir = str(Path(wavegalerkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    for argv in (["run"], ["oracle", "bernoulli"], ["decay", path], ["converge", path, "--modes", "x", "--dts", "0.01"]):
        proc = subprocess.run([sys.executable, "-m", "wavegalerkin.cli", *argv], capture_output=True, env=env, timeout=300)
        assert proc.returncode == 3, argv
        assert proc.stderr.decode().startswith("usage: wavegalerkin")
        assert b"Traceback" not in proc.stderr and proc.stdout == b""


def _no_work(*args, **kwargs):
    raise AssertionError("a command with a bad output path did work before rejecting it")


@pytest.mark.parametrize("command", ["run", "converge"])
@pytest.mark.parametrize("bad", ["under_a_file", "a_directory"])
def test_unwritable_output_path_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command, bad):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    bad_path = str(blocker / "out.file") if bad == "under_a_file" else str(tmp_path)
    good_json = tmp_path / "study.json"
    if command == "run":
        cfg = make_cfg(tmp_path, output={"csv_path": bad_path, "report_path": str(tmp_path / "report.json")})
        tail = []
    else:
        cfg = make_cfg(tmp_path)
        tail = ["--modes", "4", "--dts", "0.01", "--out-json", str(good_json), "--out-csv", bad_path]
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


def test_streamed_write_that_raises_part_way_keeps_the_old_file(tmp_path):
    # The chunks go into the temp file as they come; when the iterator
    # raises, the temp file goes and the target keeps its old bytes.
    target = tmp_path / "trajectory.csv"
    target.write_bytes(b"old bytes\n")
    written = []

    def chunks():
        yield "t,energy\n"
        yield "1,2\n" * (1 << 18)  # 1 MiB, past the writer's buffer
        written.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._write_atomic(target, chunks())
    assert written and written[0] >= 1 << 20
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


# Long stride-1 runs whose sample histories dwarf every fixed cost: a forced
# periodic cubic (8.2 MB of history) and a custom table (3.8 MB).
_TABLE_R = np.linspace(-10.0, 10.0, 401)
MEMORY_CONFIGS = {
    "forced_cubic": dict(
        domain={"length": 1.0, "bc": "periodic_mean_zero"},
        modes=32,
        forcing={"kind": "affine", "g0": 0.5, "g1": 0.05, "g2": 0.05, "constant": 0.5},
        initial={"x0": {"type": "sine", "wavenumber": 1, "amplitude": 0.8}, "x1": {"type": "zero"}},
        time={"T": 16.0, "dt": 1e-3, "sample_stride": 1},
    ),
    "custom_table": dict(
        modes=24,
        nonlinearity={
            "kind": "custom",
            "p": 4.0,
            "a0": 1.0,
            "a1": 0.003,
            "b0": 1.0,
            "b1": 0.0,
            "table": {"r": _TABLE_R.tolist(), "f": (3.0 * _TABLE_R**2).tolist()},
        },
        time={"T": 10.0, "dt": 1e-3, "sample_stride": 1},
    ),
}


@pytest.mark.parametrize("name", list(MEMORY_CONFIGS))
def test_run_peak_memory_is_its_history_plus_columns(tmp_path, capsys, name):
    # Past stepping, a run holds its history, the energy columns and one
    # block of rows; a history copy, a whole-history grid field or the
    # whole CSV text each would break the bound (the peak was 4.1 and 8.3
    # times the history when all were held).
    cfg = make_cfg(tmp_path, **MEMORY_CONFIGS[name])
    path = write_cfg(tmp_path, cfg)
    rc = load_config(path)
    history = (rc.solver.n_steps // rc.solver.sample_stride + 2) * 2 * rc.modes * 8
    tracemalloc.start()
    try:
        code = cli.main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr()
    assert peak <= 1.5 * history + (1 << 20), (peak, history)


def test_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_converge", lambda rc, *args: seen.append(("converge",) + args) or 0)
    path = write_cfg(tmp_path, make_cfg(tmp_path))
    assert cli._build_parser() is cli._build_parser()
    conv = ["converge", path, "--modes", "4", "8", "--dts", "0.01"]
    assert cli.main(conv + ["--dt-ref-factor", "20", "--m-ref", "32", "--out-json", "a.json", "--out-csv", "a.csv"]) == 0
    assert cli.main(["verify", path]) == 0
    assert cli.main(["converge", path, "--modes", "4", "--dts", "0.02"]) == 0
    assert seen == [
        ("converge", [4, 8], [0.01], 32, 20, "a.json", "a.csv"),
        ("converge", [4], [0.02], None, 10, "converge.json", "converge.csv"),
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


# Row counts at the edges of the writer's blocks, and one of two blocks.
@pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 400])
@pytest.mark.parametrize("envelope", [True, False])
@pytest.mark.parametrize("decay", [True, False])
def test_csv_text_matches_the_per_value_formatter(envelope, decay, n):
    rng = np.random.default_rng(8)
    special = SPECIAL_VALUES[:n]

    def column():
        # random bit patterns: every exponent, subnormals, and NaN payloads
        c = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64).copy()
        c[rng.choice(n, len(special), replace=False)] = special
        return c

    tbl = EnergyTable(t=column(), kinetic=column(), potential=column(), energy=column(), by_norm_sq=column(), forcing_power=column())
    bounds = {
        "gronwall_envelope": column() if envelope else None,
        "decay_bound": column() if decay else None,
        "identity_residual": column(),
    }
    chunks = list(cli._csv_text(SimpleNamespace(energy=tbl), bounds))
    # the header, then one chunk per block of rows
    assert len(chunks) == 1 + -(-n // CSV_BLOCK_ROWS)
    text = "".join(chunks)
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


def test_help_lists_the_three_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "{verify,run,converge}" in help_text
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
