"""Smoke test: the artifact comparison finds a tree identical to itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_artifacts_of_src_with_itself(tmp_path):
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "benchmarks" / "compare_artifacts.py"), src, src, "--seeds", "500", "--workloads", "long_small", "--work", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "6 configs, 0 differing files\n"
    stored = sorted(p.name for p in (tmp_path / "new" / "long_small" / "500").iterdir() if p.name.startswith("long_small0."))
    assert stored == [f"long_small0.{s}" for s in ("csv", "report.json", "run.exit", "run.stderr", "run.stdout", "verify.exit", "verify.stderr", "verify.stdout")]
    assert (tmp_path / "new" / "long_small" / "500" / "long_small0.run.exit").read_text() == "0\n"
