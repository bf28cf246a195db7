"""Per-phase totals of one rank, read off its executed tasks.

rocHPL records, on the process owning the current diagonal panel, the time
per iteration spent in FACT, in MPI, and in host-device transfer, plus the
GPU active time.  The numeric engine's record is its executed task list:
:func:`~repro.hpl.driver.factorize` stamps every task that ran a step with
the step's label (``phase``), wall span, thread CPU seconds, flops and,
for the ``d2h.*`` / ``h2d.*`` transfers, bytes.  Wall times are only
diagnostics (the engine is not the paper's hardware); the flop and byte
counts are exact, and ``tests/test_integration.py`` holds every rank's to
the section extents the performance model prices
(:func:`repro.grid.block_cyclic.section_extents`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..sched.engine import Task


@dataclass(frozen=True)
class PhaseRecord:
    """One phase label's totals over a rank's run."""

    seconds: float = 0.0
    flops: float = 0.0
    d2h_bytes: float = 0.0
    h2d_bytes: float = 0.0


class Timers:
    """Read-only view over one rank's executed tasks; iterates them."""

    def __init__(self, tasks: list[Task]) -> None:
        self.tasks = tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def total(self, label: str) -> PhaseRecord:
        """Sum the tasks labelled ``label`` over all iterations."""
        tasks = [t for t in self.tasks if t.phase == label]
        return PhaseRecord(
            seconds=sum(t.duration for t in tasks),
            flops=sum(t.flops for t in tasks),
            d2h_bytes=sum(t.nbytes for t in tasks if t.name.startswith("d2h.")),
            h2d_bytes=sum(t.nbytes for t in tasks if t.name.startswith("h2d.")),
        )
