"""In-memory spans recorded around calls into pptsep's layers.

A traced run swaps the module attributes through which the pipeline calls
each layer (``pptsep.ensembles.find_witness``, ``pptsep.canonical.ppt_report``,
...) for timing wrappers, so spans nest exactly as the real call path does.
Nothing under ``src/`` changes: the wrappers live only while a ``Tracer`` is
installed and the original functions are put back when it is removed.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) the pipeline calls through, and the span name it records.
# Span names use the module that defines the function, not the one calling it.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("pptsep.ensembles", "decompose", "ensembles.decompose"),
    ("pptsep.ensembles", "numeric_rank", "linalg.numeric_rank"),
    ("pptsep.ensembles", "find_witness", "canonical.find_witness"),
    ("pptsep.ensembles", "rotate_to_corner", "canonical.rotate_to_corner"),
    ("pptsep.ensembles", "extract_canonical", "canonical.extract_canonical"),
    ("pptsep.ensembles", "ensemble_from_form", "ensembles.ensemble_from_form"),
    ("pptsep.ensembles", "simultaneous_diagonalize", "ensembles.simultaneous_diagonalize"),
    ("pptsep.ensembles", "verify_ensemble", "ensembles.verify_ensemble"),
    ("pptsep.canonical", "numeric_rank", "linalg.numeric_rank"),
    ("pptsep.canonical", "conjugate_local", "linalg.conjugate_local"),
    ("pptsep.canonical", "ppt_report", "ppt.ppt_report"),
    ("pptsep.canonical", "filter_corner", "canonical.filter_corner"),
)

# Called once per witness candidate; counted, not timed, so that the witness
# search keeps its per-candidate work inside its own self time.
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("pptsep.canonical", "sandwich_ab", "canonical.find_witness.candidates"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    state: int | None
    size: int | None = None  # order of the matrix argument, where one is recorded

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans and counts in memory until the run ends."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    state: int | None = None
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, size: int | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), math.nan, parent, self.state, size)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = getattr(args[0], "shape", (None,))[0] if args else None
            with self.span(name, size):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.state, name)] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every layer call through the tracer; restore the originals on exit."""
    saved = []
    try:
        for targets, wrap in ((LAYER_TARGETS, tracer.timed), (COUNT_TARGETS, tracer.counted)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]
