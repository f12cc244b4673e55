"""Span recording around the program's public functions, from outside.

The benchmark wraps module attributes that ``wavegalerkin.cli`` and
``wavegalerkin.solver`` look up at call time, records one span per call
(name, start, end, parent) in memory, and restores the originals when the
traced pass ends.  Nothing inside the program changes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    children_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Direct children run one after another inside the parent, so their
        # summed durations are exactly the part of the interval they cover.
        return self.duration - self.children_s


class SpanRecorder:
    """In-memory span list with a stack for parent links (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children_s += sp.duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def totals(self, attr: str = "duration") -> dict[str, float]:
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + getattr(sp, attr)
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": sp.name, "start": sp.start - t0, "end": sp.end - t0, "parent": sp.parent}
                    )
                    + "\n"
                )


def layer_targets():
    """(module, attribute, span name) for every wrapped public function."""
    from wavegalerkin import cli, kernels, solver

    names = (
        "load_config",
        "build_operator",
        "verify_conditions",
        "verify_g",
        "resolve_initial",
        "integrate",
        "derive_gronwall",
        "derive_decay",
        "monitor",
        "sample_table",
    )
    targets = [(cli, n, f"cli.{n}") for n in names]
    targets.append((solver, "energy_table", "solver.energy_table"))
    targets.append((kernels, "run_numpy", "kernels.run_numpy"))
    return targets


@contextmanager
def patched(replacements):
    """Temporarily set ``(module, attribute, value)`` triples; always restores."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer target with ``recorder`` for the duration."""
    targets = layer_targets()
    with patched([(mod, attr, recorder.wrap(name, getattr(mod, attr))) for mod, attr, name in targets]):
        yield
