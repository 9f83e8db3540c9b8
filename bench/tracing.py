"""In-memory spans for the traced benchmark run.

A span records a name, a start, an end, its parent span and the task it
belongs to.  The root span of a task is the parent of every span opened
inside it, and all spans of one task share the root's id as task id.
Spans stay in memory; the runner reduces them when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Iterator, NamedTuple


class Span(NamedTuple):
    task: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans and named work counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._task: int | None = None
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._task = sid
        task = self._task
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(task, sid, parent, name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


class NullTracer:
    """Tracing off: spans and counters cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out
