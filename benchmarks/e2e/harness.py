"""What every workload shares: ops, the closed loop, end-to-end metrics."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from . import stats
from .spans import Recorder

@dataclass
class Op:
    """One operation as the caller saw it."""

    cls: str  # size class, for class-balanced latency
    start: float  # time.perf_counter() seconds
    end: float
    ok: bool
    input: Any = None
    output: Any = None
    note: str = ""  # why it failed

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Window:
    first_op: int  # index into Workload.ops
    first_cycle: int  # index into Workload.cycles
    start: float  # time.perf_counter() seconds
    elapsed: float


def read_peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Workload:
    """Base class: set up, run timed windows, check outputs, report.

    Every workload is a closed loop: ``callers`` threads each repeat
    :meth:`one_cycle` -- a fixed bundle of ops -- issuing the next only
    when the last has returned.  A cycle that starts before the window
    closes runs to completion, so work is never cut off.

    ``throughput_per_s`` is median-based like every other end-to-end
    metric: callers x the median over cycles of (verified ops / cycle
    seconds).  On a steady system that is ops / elapsed; unlike it, one
    wedged job or one burst of host noise in a 15 s window moves it by a
    sample, not by the length of the stall.
    """

    name = ""
    callers = 1

    def __init__(self, seed: int, rec: Recorder, scratch: str) -> None:
        self.seed = seed
        self.rec = rec
        self.scratch = scratch  # directory inside the checkout for temp files
        self.ops: list[Op] = []
        self.cycles: list[tuple[float, list[Op]]] = []
        self.windows: list[Window] = []

    def setup(self) -> None:
        """Imports, servers, warm-up: everything ``setup_s`` covers."""

    def one_cycle(self, caller: int) -> list[Op]:
        raise NotImplementedError

    def check(self) -> None:
        """Verify outputs after the windows; mark wrong ops failed."""

    def close(self) -> None:
        """Stop everything ``setup`` started."""

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the system under test."""
        return read_peak_rss_mb()

    def latency_samples(self, ops: list[Op]) -> list[tuple[str, float]]:
        return [(op.cls, op.latency_ms) for op in ops if op.ok]

    # -- shared machinery ------------------------------------------------

    def window(self, seconds: float) -> None:
        """Run the closed loop for ``seconds``; record ops and cycles."""
        first_op, first_cycle = len(self.ops), len(self.cycles)
        start = time.perf_counter()
        deadline = start + seconds

        def caller(index: int) -> None:
            last = start
            while last < deadline:
                ops = self.one_cycle(index)
                now = time.perf_counter()
                self.cycles.append((now - last, ops))  # append is atomic
                self.ops.extend(ops)
                last = now

        threads = [threading.Thread(target=caller, args=(i,),
                                    name=f"client-{i}")
                   for i in range(self.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.windows.append(Window(first_op, first_cycle, start,
                                   time.perf_counter() - start))

    def window_ops(self, index: int) -> list[Op]:
        last = (self.windows[index + 1].first_op
                if index + 1 < len(self.windows) else len(self.ops))
        return self.ops[self.windows[index].first_op:last]

    def throughput(self, index: int) -> float:
        last = (self.windows[index + 1].first_cycle
                if index + 1 < len(self.windows) else len(self.cycles))
        cycles = self.cycles[self.windows[index].first_cycle:last]
        return self.callers * stats.median(
            sum(op.ok for op in ops) / seconds for seconds, ops in cycles)

    def end_to_end(self) -> dict:
        """Every end-to-end metric but ``setup_s`` (the launcher's)."""
        samples = self.latency_samples(self.window_ops(0))
        if not samples:
            raise RuntimeError(f"{self.name}: no op succeeded")
        return {
            "throughput_per_s": self.throughput(0),
            "latency_p50_ms": stats.class_balanced_median(samples),
            "peak_rss_mb": self.peak_rss_mb(),
        }
