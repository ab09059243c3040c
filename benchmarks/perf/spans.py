"""The benchmark's own span recorder.

Spans are recorded around the calls the benchmark makes into each layer
(never inside the program), kept in memory, and written as JSONL when
the run ends.  The recorder is deliberately separate from
``repro.obs.Tracer``: a change to the program's tracer must not change
how the benchmark measures.

Parentage follows the recording thread's stack.  A span opened on a
thread with an empty stack (a server worker calling the benchmark's
store wrapper) attaches to the recorder's ambient span — the diagnosis
the single-client load is waiting on.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    diagnosis: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ambient: Span | None = None
        # time spent inside the recorder itself: the directly measured
        # part of the tracing overhead
        self.overhead_s = 0.0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, diagnosis: str | None = None, **attrs):
        entered = perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        if diagnosis is None and parent is not None:
            diagnosis = parent.diagnosis
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=0.0,
            parent=parent.span_id if parent is not None else None,
            diagnosis=diagnosis,
            attrs=attrs,
        )
        stack.append(span)
        span.start = perf_counter()
        self.overhead_s += span.start - entered
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
                self.overhead_s += perf_counter() - span.end

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> the span's duration minus the part of its interval
    that its children cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals
