"""Chrome-trace export of simulated timelines.

``to_chrome_trace`` converts a :class:`~repro.sched.engine.TimelineResult`
into the Trace Event JSON format, so a simulated benchmark run opens
directly in ``chrome://tracing`` / Perfetto with one row per modeled
resource (GPU stream, host-device DMA, CPU, NIC) -- the interactive
version of the paper's Fig. 3/6 diagrams.
"""

from __future__ import annotations

import json

from .engine import TimelineResult

#: The first rows of the trace viewer, labeled even when idle; any other
#: resource gets the next row in first-seen order.
_FIXED_ROWS = ("gpu", "hd", "cpu", "mpi")

#: Colors by accounting phase (Chrome trace color names).
_PHASE_COLORS = {
    "GPU": "thread_state_running",
    "FACT": "thread_state_iowait",
    "MPI": "rail_load",
    "TRANSFER": "rail_animation",
}


def to_chrome_trace(result: TimelineResult, time_unit: float = 1e6) -> dict:
    """Build a Trace Event Format document (``traceEvents`` + metadata).

    Args:
        result: A simulated timeline.
        time_unit: Multiplier from model seconds to trace microseconds
            (the default treats model seconds as real seconds).
    """
    rows = {resource: row for row, resource in enumerate(_FIXED_ROWS)}
    spans = []
    for task in result.tasks:
        if task.resource is None or task.duration <= 0:
            continue
        event = {
            "name": task.name,
            "cat": task.phase or "other",
            "ph": "X",
            "pid": 1,
            "tid": rows.setdefault(task.resource, len(rows)),
            "ts": task.start * time_unit,
            "dur": task.duration * time_unit,
            "args": {"iteration": task.tag, "phase": task.phase},
        }
        color = _PHASE_COLORS.get(task.phase)
        if color:
            event["cname"] = color
        spans.append(event)
    labels = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": row,
         "args": {"name": resource}}
        for resource, row in rows.items()
    ]
    return {
        "traceEvents": labels + spans,
        "displayTimeUnit": "ms",
        "otherData": {"makespan_s": result.makespan},
    }


def write_chrome_trace(result: TimelineResult, path: str) -> None:
    """Serialize :func:`to_chrome_trace` to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(result), fh)
