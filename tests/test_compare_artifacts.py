"""The artifact comparison: a tree against itself, and what it prints for a difference."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare_artifacts():
    spec = importlib.util.spec_from_file_location("compare_artifacts", ROOT / "benchmarks" / "compare_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_artifacts_of_src_with_itself(tmp_path):
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "benchmarks" / "compare_artifacts.py"), src, src, "--seeds", "500", "--workloads", "long_small", "--work", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "6 configs, 0 differing files\n"
    stored = sorted(p.name for p in (tmp_path / "new" / "long_small" / "500").iterdir() if p.name.startswith("long_small0."))
    assert stored == [f"long_small0.{s}" for s in ("csv", "report.json", "run.exit", "run.stderr", "run.stdout", "verify.exit", "verify.stderr", "verify.stdout")]
    assert (tmp_path / "new" / "long_small" / "500" / "long_small0.run.exit").read_text() == "0\n"


def test_compare_stores_names_the_json_paths_that_differ(tmp_path):
    old_report = {"verification": {"passed": True, "proceed": True, "poincare": {"passed": True, "lambda_min": 9.87}}, "monitor": {"checks": [{"worst_violation": 1.0}]}}
    new_report = {"verification": {"passed": True, "poincare": {"passed": True, "lambda_min": 9.87}}, "monitor": {"checks": [{"worst_violation": 1}]}, "seed": 0}
    files = {
        "w/1/a.report.json": (json.dumps(old_report), json.dumps(new_report)),
        "w/1/a.verify.stdout": (json.dumps({"passed": True}), json.dumps({"passed": False})),
        # the same JSON written differently: no path differs, so the bytes are named
        "w/1/b.report.json": ('{"a": 1, "b": 2}', '{"b": 2, "a": 1}'),
        # a rejected config prints nothing on one side
        "w/1/c.verify.stdout": ("", "{}"),
        "w/1/a.csv": ("t\n0\n", "t\n1\n"),
        "w/1/a.run.exit": ("0\n", "1\n"),
        "w/1/same.run.stdout": ("ok\n", "ok\n"),
    }
    stores = tmp_path / "old", tmp_path / "new"
    for rel, texts in files.items():
        for store, text in zip(stores, texts):
            (store / rel).parent.mkdir(parents=True, exist_ok=True)
            (store / rel).write_text(text)
    (stores[0] / "w/1/gone.csv").write_text("t\n")

    assert _compare_artifacts().compare_stores(*stores) == [
        "w/1/a.csv: 4 bytes -> 4 bytes, contents differ",
        "w/1/a.report.json: verification/proceed: only in old",
        "w/1/a.report.json: monitor/checks/0/worst_violation: 1.0 -> 1",
        "w/1/a.report.json: seed: only in new",
        "w/1/a.run.exit: 0 -> 1",
        "w/1/a.verify.stdout: passed: true -> false",
        "w/1/b.report.json: 16 bytes -> 16 bytes, contents differ",
        "w/1/c.verify.stdout: 0 bytes -> 2 bytes, contents differ",
        "w/1/gone.csv: only in old",
    ]


def test_tally_counts_the_files_that_show_each_json_path():
    # A report's verification section is the verify output, so the two
    # tally together; lines that name no JSON path are not tallied.
    lines = [
        "w/1/a.csv: 4 bytes -> 4 bytes, contents differ",
        "w/1/a.report.json: verification/nonlinearity/checks: list of 4 -> list of 3",
        "w/1/a.report.json: seed: only in new",
        "w/1/a.run.exit: 0 -> 1",
        "w/1/a.verify.stdout: nonlinearity/checks: list of 4 -> list of 3",
        "w/1/b.report.json: 16 bytes -> 16 bytes, contents differ",
        "w/1/gone.report.json: only in old",
        "w/2/a.verify.stdout: nonlinearity/checks: list of 4 -> list of 3",
    ]
    assert _compare_artifacts().tally(lines) == [
        "3 files: nonlinearity/checks: list of 4 -> list of 3",
        "1 file: seed: only in new",
    ]


def test_named_lists_are_matched_by_name():
    # A check that appears reads by its name, not as a change of list length;
    # the same list reordered differs in bytes only.
    json_diffs = _compare_artifacts().json_diffs
    old = {"checks": [{"name": "growth", "passed": True}, {"name": "coercivity", "passed": True}]}
    new = {"checks": [{"name": "growth", "passed": False}, {"name": "coercivity", "passed": True}, {"name": "poincare", "passed": True}]}
    assert json_diffs(old, new) == ["checks/growth/passed: true -> false", "checks/poincare: only in new"]
    assert json_diffs(old, {"checks": old["checks"][::-1]}) == []
    # items without a name, or with a repeated one, are still compared by position
    assert json_diffs([{"a": 1}], [{"a": 1}, {"a": 2}]) == ["<root>: list of 1 -> list of 2"]
    twice = [{"name": "x", "v": 1}, {"name": "x", "v": 2}]
    assert json_diffs(twice, twice[::-1]) == ["0/v: 1 -> 2", "1/v: 2 -> 1"]


def test_tally_folds_number_changes_at_one_path():
    lines = [
        "w/1/a.report.json: initial/x0_tail_norm: 1.05e-08 -> 1.5e-16",
        "w/1/b.report.json: initial/x0_tail_norm: 2.0 -> 2.5",
        "w/2/a.report.json: initial/x0_tail_norm: 3 -> 3.0",
        "w/2/a.report.json: monitor/checks/gronwall/passed: true -> false",
        "w/2/a.verify.stdout: nonlinearity/checks/poincare: only in new",
        "w/2/b.report.json: verification/nonlinearity/checks/poincare: only in new",
    ]
    assert _compare_artifacts().tally(lines) == [
        "3 files: initial/x0_tail_norm: numbers changed, largest relative change 1",
        "2 files: nonlinearity/checks/poincare: only in new",
        "1 file: monitor/checks/gronwall/passed: true -> false",
    ]


def test_csv_tally_counts_and_sizes_the_changes_per_workload(tmp_path):
    # Per workload, the differing CSVs and those whose row count moved; per
    # column, the largest |new - old| over the column's largest |entry|.
    header = "t,energy,decay_bound\n"
    files = {
        # energy moves by 4e-12, 2e-12 of its largest entry 2.0, t not at all
        "v/1/a.csv": ("0,1,\n1,2,\n", "0,1.000000000004,\n1,2,\n"),
        # energy moves by 2, 0.5 of its largest entry 4
        "w/2/a.csv": ("0,4,1\n1,3,1\n", "0,4,1\n1,1,1\n"),
        "w/2/b.csv": ("0,1,\n", "0,1,\n"),
        # a row more: counted, not sized; a NaN appears: inf
        "w/3/a.csv": ("0,1,\n", "0,1,\n1,2,\n"),
        "x/1/a.csv": ("0,1,2\n", "0,nan,2\n"),
        # identical in workload y: y is not listed
        "y/1/a.csv": ("0,1,\n", "0,1,\n"),
        "w/4/gone.csv": ("0,1,\n", None),
    }
    stores = tmp_path / "old", tmp_path / "new"
    for rel, texts in files.items():
        for store, text in zip(stores, texts):
            if text is not None:
                (store / rel).parent.mkdir(parents=True, exist_ok=True)
                (store / rel).write_text(header + text)
    assert _compare_artifacts().csv_tally(*stores) == [
        "v: 1 of 1 CSVs differ, 0 with a moved row count",
        "v csv t: largest relative change 0",
        "v csv energy: largest relative change 2e-12",
        "v csv decay_bound: largest relative change 0",
        "w: 2 of 3 CSVs differ, 1 with a moved row count",
        "w csv t: largest relative change 0",
        "w csv energy: largest relative change 0.5",
        "w csv decay_bound: largest relative change 0",
        "x: 1 of 1 CSVs differ, 0 with a moved row count",
        "x csv t: largest relative change 0",
        "x csv energy: largest relative change inf",
        "x csv decay_bound: largest relative change 0",
    ]
