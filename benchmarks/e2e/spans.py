"""In-memory spans around calls into each layer, written out afterwards.

Spans are recorded from the benchmark's own files (the program under
test is not instrumented): a span has a name, a start, an end, the span
that caused it and the id of the op it belongs to.  They are kept in a
list while the window runs and exported once it has closed, as the same
Trace Event JSON :mod:`repro.sched.trace` writes, so a service job's
waterfall and a simulated HPL timeline open in the same viewer.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float  # time.perf_counter() seconds
    end: float
    parent: int | None  # id of the span that caused this one
    op: int | None  # shared by every span of one request
    lane: str  # trace-viewer row: a client thread or an observed layer
    ref: str = ""  # what the call was about (a job id), when it matters

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a disabled recorder costs one attribute test."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op: int | None = None,
            lane: str | None = None, ref: str = "") -> int | None:
        """Record a finished span (e.g. one rebuilt from event times)."""
        if not self.enabled:
            return None
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, op,
                        lane or threading.current_thread().name, ref)
            self.spans.append(span)
        return span.id

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, ref: str = ""):
        """Time the body; nests under this thread's innermost open span."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        start = time.perf_counter()
        span_id = self.add(name, start, start, parent, op, ref=ref)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id].end = time.perf_counter()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other and may stick out of their parent
    (an observed server-side span placed by wall-clock timestamps), so
    the covered part is the length of the union of the child intervals
    clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def to_trace_events(spans: list[Span]) -> dict:
    """Trace Event Format document, one viewer row per lane."""
    lanes = {lane: i for i, lane in
             enumerate(dict.fromkeys(s.lane for s in spans))}
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": lane}}
        for lane, tid in lanes.items()
    ]
    origin = min((s.start for s in spans), default=0.0)
    own = self_times(spans)
    for span in spans:
        events.append({
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "pid": 1,
            "tid": lanes[span.lane],
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"id": span.id, "parent": span.parent, "op": span.op,
                     "ref": span.ref, "self_us": own[span.id] * 1e6},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"spans": len(spans)}}


def write_trace(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_trace_events(spans), fh)
