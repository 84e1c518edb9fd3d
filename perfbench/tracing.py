"""Spans around the benchmark's calls into the lab's modules.

A span records a name ("module.function"), start and end times from
``time.perf_counter`` and the span that was open when it started. All
spans of one run share a run id. They are kept in memory and written
out once, when the run ends.

``Tracer(enabled=False)`` makes ``call`` a plain function call, which
is how the untraced runs that give the end-to-end metrics are made.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(asdict(s), run_id=self.run_id)
                for s in sorted(self.spans, key=lambda s: s.span_id)]
        path.write_text(json.dumps(rows) + "\n")


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root``'s descendants (not ``root`` itself)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root.span_id]
    while todo:
        for child in children[todo.pop()]:
            out.append(child)
            todo.append(child.span_id)
    return out


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-module self time: span durations minus their children's."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out = defaultdict(float)
    for s in spans:
        out[s.module] += s.seconds - child_time[s.span_id]
    return dict(out)


def seconds_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Total seconds in, and number of calls to, each span name."""
    seconds, calls = defaultdict(float), defaultdict(int)
    for s in spans:
        seconds[s.name] += s.seconds
        calls[s.name] += 1
    return dict(seconds), dict(calls)
