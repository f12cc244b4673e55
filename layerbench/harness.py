"""Closed-loop runner for ``wavegalerkin`` with the benchmark's correctness gates.

One caller runs the workload's configurations through ``cli.main`` in
process, each invocation starting only after the previous one returned.
Every invocation is checked against the CLI contract:

- it must not raise or print a traceback, and must exit in {0, 1, 2, 3};
- exit 3 on a generated (valid) configuration is a failure;
- artifacts are deleted before the call, and afterwards the report must
  exist, the CSV must exist exactly when the run got past verification,
  its row count must equal the report's ``samples``, and the exit code
  must match the report's verdict;
- every run of one configuration must give byte-identical artifacts.

The oracle gate compares each trajectory of a gated pass, right after its
run, with ``oracle.reference_run`` at the same modes and step,
restarted from the program's state once per segment (see
:func:`oracle_gap`).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
import shutil
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import CHUNK_S, SpeedProbe
from tracing import SpanRecorder, patched
from workloads import RunSpec, write_configs

from wavegalerkin import cli, oracle

CONTRACT_CODES = (0, 1, 2, 3)

# Relative H-norm gap allowed between the program and the oracle.  RK4 runs
# do the same arithmetic in a different association order, so over one
# segment they agree to round-off (about 1e-14 measured).  Stormer-Verlet
# is second order and the oracle is RK4, so at the same dt the two differ by
# the truncation error: at most 8.9e-5 over 36 seeds of short_mix, so the
# Verlet gate leaves a margin of about ten.
GATE_RK4 = 1e-9
GATE_VERLET = 1e-3

# Steps between oracle restarts from the program's state (see oracle_gap).
SEGMENT_STEPS = 1000


@dataclass
class Outcome:
    name: str
    command: str
    exit_code: int | None
    seconds: float
    steps: int = 0
    failure: str | None = None
    violation: bool = False
    artifact_bytes: int = 0


@dataclass
class PassResult:
    seconds: float  # raw wall time of the pass's invocations
    scaled: float  # the same, scaled to reference machine speed (speed.py)
    steps: int
    artifact_bytes: int
    outcomes: list[Outcome] = field(default_factory=list)


class Harness:
    """Generated configurations for one workload plus every invocation's outcome."""

    def __init__(self, root: Path, name: str, specs: list[RunSpec], interpreter_share: float = 1.0):
        self.probe = SpeedProbe()
        self.share = interpreter_share
        self.work = root / ".layerbench" / "work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.specs = specs
        self.paths = write_configs(self.specs, self.work / "cfg")
        # The configs carry relative output paths; re-root them here.
        os.environ[cli.ENV_OUTPUT_DIR] = str(self.work)
        self.outcomes: list[Outcome] = []
        self.digests: dict[str, str] = {}
        self.first_states: dict[str, np.ndarray] = {}
        self.backends_run: set[str] = set()
        self.gate_gaps: dict[str, float] = {}

    # -- invocations -------------------------------------------------------

    def _call(self, argv: list[str], recorder: SpanRecorder | None) -> tuple[int | None, float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        code, problem = None, None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                if recorder is None:
                    code = cli.main(argv)
                else:
                    with recorder.span("cli.main"):
                        code = cli.main(argv)
            except SystemExit as e:
                problem = f"SystemExit({e.code!r})"
            except Exception:  # any escape from main breaks the CLI contract
                problem = traceback.format_exc().strip().splitlines()[-1]
            seconds = perf_counter() - t0
        if problem is None and "Traceback" in out.getvalue() + err.getvalue():
            problem = "printed a traceback"
        if problem is None and code not in CONTRACT_CODES:
            problem = f"exit code {code!r} outside {CONTRACT_CODES}"
        return code, seconds, problem

    def verify_one(self, spec: RunSpec, path: Path) -> Outcome:
        code, seconds, problem = self._call(["verify", str(path)], None)
        if problem is None and code not in (0, 1):
            problem = f"verify exited {code} on a generated valid config"
        o = Outcome(spec.name, "verify", code, seconds, failure=problem, violation=problem is None and code == 1)
        self.outcomes.append(o)
        return o

    def run_one(self, spec: RunSpec, path: Path, recorder: SpanRecorder | None = None) -> Outcome:
        csv_path = self.work / spec.config["output"]["csv_path"]
        report_path = self.work / spec.config["output"]["report_path"]
        csv_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        code, seconds, problem = self._call(["run", str(path)], recorder)
        o = Outcome(spec.name, "run", code, seconds, failure=problem)
        if problem is None:
            o.failure = self._check_artifacts(spec, o, csv_path, report_path)
        if o.failure is None:
            o.violation = code in (1, 2)
        self.outcomes.append(o)
        return o

    def _check_artifacts(self, spec: RunSpec, o: Outcome, csv_path: Path, report_path: Path) -> str | None:
        if o.exit_code == 3:
            return "exit 3 on a generated valid config"
        if not report_path.is_file():
            return "report missing"
        report_bytes = report_path.read_bytes()
        report = json.loads(report_bytes)
        mon = report.get("monitor")
        csv_bytes = b""
        if mon is None:
            # Verification refused the run: no trajectory may be on disk.
            if o.exit_code != 1:
                return f"refused run exited {o.exit_code}, expected 1"
            if csv_path.exists():
                return "CSV present after a refused run"
        else:
            if not csv_path.is_file():
                return "CSV missing"
            csv_bytes = csv_path.read_bytes()
            rows = csv_bytes.count(b"\n") - 1
            if rows != report.get("samples"):
                return f"CSV has {rows} rows, report says {report.get('samples')} samples"
            expected = 2 if mon["diverged"] else (0 if mon["passed"] else 1)
            if o.exit_code != expected:
                return f"exit {o.exit_code} disagrees with the report's verdict ({expected})"
            if mon["diverged"]:
                o.steps = int(round(mon["diverged_at"] / spec.config["time"]["dt"]))
            else:
                o.steps = spec.n_steps
        o.artifact_bytes = len(csv_bytes) + len(report_bytes)
        digest = hashlib.sha256(csv_bytes + b"\0" + report_bytes).hexdigest()
        first = self.digests.setdefault(spec.name, digest)
        if digest != first:
            return "artifacts differ from an earlier run of the same config"
        return None

    # -- passes ------------------------------------------------------------

    def _series(self, call) -> tuple[list[Outcome], float]:
        """``call(spec, path)`` for every config, with speed samples between.

        Returns the outcomes and their summed time scaled to reference speed,
        each chunk of at least ``CHUNK_S`` by the kernels timed around it.
        """
        gc.collect()
        outs, scaled, chunk = [], 0.0, 0.0
        self.probe.sample()
        for s, p in zip(self.specs, self.paths):
            outs.append(call(s, p))
            chunk += outs[-1].seconds
            if chunk >= CHUNK_S:
                scaled += self.probe.scaled(chunk, self.share)
                chunk = 0.0
        if chunk > 0.0:
            scaled += self.probe.scaled(chunk, self.share)
        return outs, scaled

    def setup_pass(self) -> tuple[float, float]:
        """Raw and scaled wall time of ``verify``, summed over the configs."""
        outs, scaled = self._series(self.verify_one)
        return sum(o.seconds for o in outs), scaled

    def run_pass(self, recorder: SpanRecorder | None = None) -> PassResult:
        """One ``run`` of every config."""
        outs, scaled = self._series(lambda s, p: self.run_one(s, p, recorder))
        return PassResult(
            seconds=sum(o.seconds for o in outs),
            scaled=scaled,
            steps=sum(o.steps for o in outs),
            artifact_bytes=sum(o.artifact_bytes for o in outs),
            outcomes=outs,
        )

    # -- oracle gate -------------------------------------------------------

    def gated_pass(self) -> float:
        """One ``run`` of every config, gating each built-in trajectory
        against the oracle right after its run.

        Only each trajectory's first state and backend are kept.  Returns
        the oracle's time, scaled to reference machine speed.
        """
        spent = 0.0

        def call(s: RunSpec, p: Path) -> Outcome:
            nonlocal spent
            with captured_trajectories() as trajs:
                o = self.run_one(s, p)
            if trajs:
                run = GateInput.of(trajs.pop())
                self.first_states[s.name] = run.a[0].copy()
                self.backends_run.add(run.backend)
                if s.builtin:
                    t0 = perf_counter()
                    self.gate(s, oracle_gap(run))
                    spent += perf_counter() - t0
            return o

        self._series(call)
        return spent * self.probe.factor(self.share)

    def gated_pass_in_child(self) -> float:
        """:meth:`gated_pass` in a forked child, and its results merged here.

        The oracle's own operator and histories then never count in this
        process's peak RSS.  The child's artifacts set the digests that
        every later run here must match, so determinism is also checked
        across processes.
        """
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                oracle_s = self.gated_pass()
                state = (oracle_s, self.outcomes, self.digests, self.first_states, self.backends_run, self.gate_gaps)
                with os.fdopen(w, "wb") as fh:
                    pickle.dump(state, fh)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"oracle gate child exited with status {status}")
        oracle_s, self.outcomes, self.digests, self.first_states, self.backends_run, self.gate_gaps = pickle.loads(data)
        return oracle_s

    def gate(self, spec: RunSpec, gap: float) -> None:
        self.gate_gaps[spec.name] = gap
        limit = GATE_RK4 if spec.rk4 else GATE_VERLET
        failure = None if gap <= limit else f"oracle gap {gap:.3e} above gate {limit:g}"
        self.outcomes.append(Outcome(spec.name, "oracle", None, 0.0, failure=failure))

    # -- summary -----------------------------------------------------------

    @property
    def failures(self) -> list[str]:
        return [f"{o.command} {o.name}: {o.failure}" for o in self.outcomes if o.failure]

    @property
    def violations(self) -> int:
        return sum(o.violation for o in self.outcomes)

    def backends(self) -> list[str]:
        return sorted(self.backends_run)


@contextmanager
def captured_trajectories():
    """Yield a list that collects every Trajectory ``cli.integrate`` returns in the block."""
    trajs = []
    original = cli.integrate

    def spy(*args, **kwargs):
        trajs.append(original(*args, **kwargs))
        return trajs[-1]

    with patched([(cli, "integrate", spy)]):
        yield trajs


@dataclass(frozen=True)
class GateInput:
    """What the oracle gate reads from a Trajectory, without its operator."""

    domain: object
    modes: int
    nl: object
    fs: object
    cfg: object
    a: np.ndarray
    adot: np.ndarray
    diverged: bool
    backend: str

    @classmethod
    def of(cls, traj) -> "GateInput":
        return cls(traj.op.domain, traj.op.modes, traj.nl, traj.fs, traj.cfg, traj.a, traj.adot,
                   traj.diverged, traj.backend)


def oracle_gap(run: GateInput) -> float:
    """Worst relative H-norm gap between a program trajectory and the oracle.

    The oracle restarts from the program's own state every
    ``SEGMENT_STEPS`` steps (at a sample boundary) and integrates the same
    modal system at the same modes, step and stride up to the next restart.
    Restarting matters because these trajectories can be chaotic: over a
    whole run, round-off alone separates two correct integrators (measured:
    a relative gap of order 1 after 20 time units on the periodic forced
    workload), while over one segment they agree to round-off.  Each sample's
    gap is the H distance ``max_H_error`` uses, relative to the largest
    oracle norm in its segment.  An oracle segment that diverges where the
    program did not is an infinite gap.
    """
    cfg = run.cfg
    per_segment = max(1, SEGMENT_STEPS // cfg.sample_stride)
    # A diverged trajectory's last row sits off the sample grid; the gate
    # covers the regular samples before it.
    n = len(run.a) - 1 if run.diverged else len(run.a)
    worst = 0.0
    for i0 in range(0, n - 1, per_segment):
        i1 = min(i0 + per_segment, n - 1)
        ref = oracle.reference_run(
            run.domain,
            run.nl,
            run.fs,
            run.a[i0],
            run.adot[i0],
            (i1 - i0) * cfg.sample_stride * cfg.dt,
            run.modes,
            cfg.dt,
            sample_stride=cfg.sample_stride,
        )
        if ref.diverged or len(ref) != i1 - i0 + 1:
            return float("inf")
        diff = ref.a[1:] - run.a[i0 + 1 : i1 + 1]
        err = float(np.sqrt(np.max(np.sum(diff * diff, axis=1))))
        scale = float(np.max(np.linalg.norm(ref.a, axis=1)))
        worst = max(worst, err / scale if scale > 0.0 else err)
    return worst
