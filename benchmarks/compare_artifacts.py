#!/usr/bin/env python3
"""Compare the CLI's outputs of two source trees on the benchmark's configs.

For every workload and seed, the configurations come from
``layerbench/workloads.py`` (imported without writing bytecode next to it).
Each tree then runs ``verify`` and ``run`` on every configuration through
``wavegalerkin.cli.main``, in one subprocess per tree with BLAS pinned to one
thread.  Both trees write into the same output directory, so the paths that
``run`` prints and records in its report agree.  After each command the child
stores its exit code, stdout and stderr, and after ``run`` the trajectory CSV
and ``report.json``.  Every stored file that differs between the trees is
printed; for a report or ``verify`` output that parses as JSON on both
sides, each differing JSON path is printed instead, such as
``verification/passed: true -> false``.  A list whose items are all objects
with distinct ``"name"`` keys, such as a report's checks, is matched by name,
so a check that appears reads ``nonlinearity/checks/poincare: only in new``.
The output ends with a tally: each differing JSON path with its change, and
how many files show it; number-to-number changes at one path fold into one
line with the largest relative change among them.  A report
holds the ``verify`` output under ``verification``, so its paths there are
tallied as ``verify``'s.  The exit status is 0 when no file differs and 1
otherwise.

    python3 benchmarks/compare_artifacts.py OLD/src NEW/src --seeds 500 501 [--workloads long_small ...] [--work DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _workloads_module():
    sys.path.insert(0, str(ROOT / "layerbench"))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = False
        sys.path.pop(0)
    return workloads


def write_plan(workloads, work: Path, workload_names: list[str], seeds: list[int]) -> list[dict]:
    """Write every configuration once; both trees run the same files."""
    plan = []
    for workload in workload_names:
        for seed in seeds:
            group = f"{workload}/{seed}"
            paths = workloads.write_configs(workloads.generate(workload, seed), work / "cfg" / group)
            plan += [{"group": group, "config": str(p), "out_dir": str(work / "out" / group)} for p in paths]
    return plan


def run_child(plan: list[dict], store: Path) -> None:
    """In the tree's process: run each command and store what it produced."""
    from wavegalerkin import cli

    for item in plan:
        cfg = Path(item["config"])
        output = json.loads(cfg.read_text())["output"]
        os.environ[cli.ENV_OUTPUT_DIR] = item["out_dir"]
        artifacts = [Path(item["out_dir"]) / output["csv_path"], Path(item["out_dir"]) / output["report_path"]]
        dest = store / item["group"]
        dest.mkdir(parents=True, exist_ok=True)
        for command in ("verify", "run"):
            for p in artifacts:
                p.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = str(cli.main([command, str(cfg)]))
                except BaseException as e:  # an escape from main is a result to compare too
                    code = f"raised {type(e).__name__}: {e}"
            stem = f"{cfg.stem}.{command}"
            (dest / f"{stem}.exit").write_text(code + "\n")
            (dest / f"{stem}.stdout").write_text(out.getvalue())
            (dest / f"{stem}.stderr").write_text(err.getvalue())
        for p, suffix in zip(artifacts, (".csv", ".report.json")):
            if p.exists():
                shutil.copyfile(p, dest / f"{cfg.stem}{suffix}")


def run_tree(src: Path, plan_path: Path, store: Path) -> None:
    """One subprocess that imports ``wavegalerkin`` from ``src`` and runs the whole plan."""
    src = src.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).resolve().parent)]))
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    code = (
        "import json, sys; from pathlib import Path; import wavegalerkin, compare_artifacts; "
        f"assert wavegalerkin.__file__.startswith({str(src)!r}), wavegalerkin.__file__; "
        "compare_artifacts.run_child(json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2]))"
    )
    subprocess.run([sys.executable, "-c", code, str(plan_path), str(store)], env=env, check=True)


# Stored files that hold one JSON document, compared path by path.
JSON_SUFFIXES = (".report.json", ".verify.stdout")


def _brief(value) -> str:
    if isinstance(value, dict):
        return f"object of {len(value)} keys"
    if isinstance(value, list):
        return f"list of {len(value)}"
    return json.dumps(value)


def _by_name(items: list) -> dict | None:
    """The items keyed by their ``"name"``, or None unless all are objects with distinct names."""
    if not all(isinstance(x, dict) and "name" in x for x in items):
        return None
    named = {str(x["name"]): x for x in items}
    return named if len(named) == len(items) else None


def json_diffs(old, new, path: str = "") -> list[str]:
    """One ``path: change`` line per place where two JSON documents differ.

    Two lists of named objects (see :func:`_by_name`) are compared as
    objects keyed by name; other lists of one length item by item.
    """
    def at(key):
        return f"{path}/{key}" if path else str(key)

    if isinstance(old, list) and isinstance(new, list):
        old_named, new_named = _by_name(old), _by_name(new)
        if old_named is not None and new_named is not None:
            old, new = old_named, new_named
    lines = []
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            if key not in new:
                lines.append(f"{at(key)}: only in old")
            elif key not in old:
                lines.append(f"{at(key)}: only in new")
            else:
                lines += json_diffs(old[key], new[key], at(key))
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (x, y) in enumerate(zip(old, new)):
            lines += json_diffs(x, y, at(i))
        return lines
    # type() too: JSON's true and 1, or 1 and 1.0, are different values
    if type(old) is type(new) and old == new:
        return []
    return [f"{path or '<root>'}: {_brief(old)} -> {_brief(new)}"]


def compare_stores(a: Path, b: Path) -> list[str]:
    """One line per stored file that is missing on a side or differs.

    A JSON artifact that parses on both sides gets one line per differing
    JSON path instead.
    """
    names = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    lines = []
    for rel in names:
        pa, pb = a / rel, b / rel
        if not (pa.exists() and pb.exists()):
            lines.append(f"{rel}: only in {'old' if pa.exists() else 'new'}")
            continue
        da, db = pa.read_bytes(), pb.read_bytes()
        if da == db:
            continue
        if rel.suffix == ".exit":
            lines.append(f"{rel}: {da.decode().strip()} -> {db.decode().strip()}")
            continue
        paths = []
        if rel.name.endswith(JSON_SUFFIXES):
            try:
                paths = json_diffs(json.loads(da), json.loads(db))
            except ValueError:  # not JSON on a side, e.g. the empty stdout of a rejected config
                pass
        if paths:
            lines += [f"{rel}: {p}" for p in paths]
        else:
            lines.append(f"{rel}: {len(da)} bytes -> {len(db)} bytes, contents differ")
    return lines


def _numbers(change: str) -> tuple[float, float] | None:
    """Both sides of an ``old -> new`` change when both are JSON numbers, else None."""
    sides = change.split(" -> ")
    if len(sides) != 2:
        return None
    try:
        values = [json.loads(side) for side in sides]
    except ValueError:
        return None
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return values[0], values[1]
    return None


def tally(lines: list[str]) -> list[str]:
    """``N files: path: change`` per JSON difference in ``lines``, the most common first.

    A line of :func:`compare_stores` names a JSON path when its file is a
    JSON artifact and the rest has a path before its change.  Changes from
    one number to another at one path fold into one line that gives the
    largest relative change ``|new - old| / max(|old|, |new|)`` among them.
    """
    counts: dict[str, int] = {}
    largest: dict[str, float] = {}
    for line in lines:
        rel, _, rest = line.partition(": ")
        if not (rel.endswith(JSON_SUFFIXES) and ": " in rest):
            continue
        if rel.endswith(".report.json") and rest.startswith("verification/"):
            rest = rest[len("verification/") :]
        path, _, change = rest.partition(": ")
        numbers = _numbers(change)
        if numbers is not None:
            a, b = numbers
            rest = f"{path}: numbers changed"
            largest[rest] = max(largest.get(rest, 0.0), abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0)
        counts[rest] = counts.get(rest, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        f"{n} file{'s' if n != 1 else ''}: {rest}" + (f", largest relative change {largest[rest]:.3g}" if rest in largest else "")
        for rest, n in ranked
    ]


def main(argv=None) -> int:
    workloads = _workloads_module()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    parser.add_argument("--work", type=Path, default=None, help="kept when given; default: a temporary directory")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "wavegalerkin" / "cli.py").is_file():
            parser.error(f"{src} holds no wavegalerkin package")

    work = args.work or Path(tempfile.mkdtemp(prefix="compare_artifacts."))
    try:
        plan = write_plan(workloads, work, args.workloads, args.seeds)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        stores = (work / "old", work / "new")
        for src, store in zip((args.old_src, args.new_src), stores):
            shutil.rmtree(store, ignore_errors=True)
            run_tree(src, plan_path, store)
        diffs = compare_stores(*stores)
        for line in diffs:
            print(line)
        differing = {line.split(": ", 1)[0] for line in diffs}
        print(f"{len(plan)} configs, {len(differing)} differing files")
        for line in tally(diffs):
            print(line)
        return 1 if diffs else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
