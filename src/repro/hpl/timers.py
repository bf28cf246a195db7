"""Per-iteration phase instrumentation (the measured side of Fig. 7).

rocHPL records, on the process owning the current diagonal panel, the time
per iteration spent in FACT, in MPI, and in host-device transfer, plus the
GPU active time.  Our numeric engine is not the paper's hardware, so wall
times here are only diagnostics -- but the *flop and byte counts* recorded
per phase are exact, and the performance model consumes exactly those
counts.  The integration tests cross-check these measured ledgers against
the analytic ones in :mod:`repro.perf.ledger`.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator

from ..blas.kernels import FLOPS


@dataclass
class PhaseRecord:
    """One phase's accounting within one iteration."""

    seconds: float = 0.0
    flops: float = 0.0
    d2h_bytes: float = 0.0
    h2d_bytes: float = 0.0

    def __iadd__(self, other: "PhaseRecord") -> "PhaseRecord":
        self.seconds += other.seconds
        self.flops += other.flops
        self.d2h_bytes += other.d2h_bytes
        self.h2d_bytes += other.h2d_bytes
        return self


@dataclass
class IterLedger:
    """All phases of one iteration, keyed by phase label."""

    k: int
    phases: dict[str, PhaseRecord] = field(default_factory=dict)

    def get(self, label: str) -> PhaseRecord:
        rec = self.phases.get(label)
        if rec is None:
            rec = self.phases[label] = PhaseRecord()
        return rec


class Timers:
    """Accumulates :class:`IterLedger` records for one rank's run."""

    def __init__(self) -> None:
        self.iters: list[IterLedger] = []
        self._by_k: dict[int, IterLedger] = {}
        self._current: IterLedger | None = None

    @contextlib.contextmanager
    def iteration(self, k: int) -> Iterator[IterLedger]:
        """Open the ledger for iteration ``k``: a new one on first use,
        after that the same one again."""
        ledger = self._by_k.get(k)
        if ledger is None:
            ledger = self._by_k[k] = IterLedger(k)
            self.iters.append(ledger)
        self._current = ledger
        try:
            yield ledger
        finally:
            self._current = None

    @contextlib.contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Time a phase and attribute its flops to ``label``.

        Requires an open iteration; nests correctly as long as labels of
        nested phases differ (inner flops are attributed to the inner
        label and excluded from the outer one).
        """
        if self._current is None:
            yield
            return
        rec = self._current.get(label)
        t0 = time.perf_counter()
        f0 = FLOPS.count
        try:
            yield
        finally:
            rec.seconds += time.perf_counter() - t0
            rec.flops += FLOPS.count - f0

    def transfer(self, d2h_bytes: float = 0.0, h2d_bytes: float = 0.0) -> None:
        """Record a (synthetic) host-device transfer for this iteration.

        On the paper's hardware this is the PCIe/Infinity-Fabric traffic
        moving the look-ahead columns to the CPU for FACT and back; the
        numeric engine records the byte counts the transfers would have.
        """
        if self._current is None:
            return
        rec = self._current.get("TRANSFER")
        rec.d2h_bytes += d2h_bytes
        rec.h2d_bytes += h2d_bytes

    def total(self, label: str) -> PhaseRecord:
        """Aggregate one phase label across all iterations."""
        agg = PhaseRecord()
        for ledger in self.iters:
            if label in ledger.phases:
                agg += ledger.phases[label]
        return agg
