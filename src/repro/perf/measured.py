"""Fig. 7 from the *numeric* engine: its executed tasks, by iteration.

The wall times are host times of the Python engine (diagnostic, not the
paper's hardware), but the *flop series* is exact and its shape —
cubic-decay UPDATE work against linearly-decaying FACT work — is the
arithmetic skeleton underneath the paper's two regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..sched.engine import Task

#: Phases reported per iteration, in display order.
PHASES = ("FACT", "LBCAST", "RS", "UPDATE")


@dataclass
class MeasuredIteration:
    """One iteration of a numeric run, aggregated across ranks."""

    k: int
    seconds: dict[str, float] = field(default_factory=dict)
    flops: dict[str, float] = field(default_factory=dict)
    d2h_bytes: float = 0.0
    h2d_bytes: float = 0.0

    @property
    def update_share(self) -> float:
        """Fraction of this iteration's flops in UPDATE (GPU-side work)."""
        total = sum(self.flops.values())
        return self.flops.get("UPDATE", 0.0) / total if total else 0.0


def measured_breakdown(ranks: Iterable[Iterable[Task]]) -> list[MeasuredIteration]:
    """Group each rank's tasks (e.g. ``HPLResult.timers``) by tag and label.

    Seconds and flops are summed across ranks (ranks execute phases
    concurrently in the real system, so sums are *work*, not critical
    path); the preamble iteration (tag -1) is folded into iteration 0.
    """
    by_k: dict[int, MeasuredIteration] = {}
    for tasks in ranks:
        for t in tasks:
            k = max(t.tag, 0)
            row = by_k.setdefault(k, MeasuredIteration(k))
            if t.phase in PHASES:
                row.seconds[t.phase] = row.seconds.get(t.phase, 0.0) + t.duration
                row.flops[t.phase] = row.flops.get(t.phase, 0.0) + t.flops
            elif t.name.startswith("d2h."):
                row.d2h_bytes += t.nbytes
            elif t.name.startswith("h2d."):
                row.h2d_bytes += t.nbytes
    return [by_k[k] for k in sorted(by_k)]


def format_measured_table(rows: list[MeasuredIteration], stride: int = 1) -> str:
    """Fig. 7-shaped table of the numeric run's per-iteration work."""
    out = [
        f"{'iter':>6s}"
        + "".join(f"{p + ' Mf':>12s}" for p in PHASES)
        + f"{'xfer KB':>10s}{'upd %':>7s}"
    ]
    for row in rows[::stride]:
        cells = "".join(
            f"{row.flops.get(p, 0.0) / 1e6:>12.3f}" for p in PHASES
        )
        xfer = (row.d2h_bytes + row.h2d_bytes) / 1e3
        out.append(
            f"{row.k:>6d}{cells}{xfer:>10.1f}{row.update_share * 100:>7.1f}"
        )
    return "\n".join(out) + "\n"


def measured_chart(rows: list[MeasuredIteration], width: int = 64, height: int = 14) -> str:
    """ASCII chart of UPDATE vs FACT flops per iteration.

    The crossing of these two series is the arithmetic reason the paper's
    tail regime exists: UPDATE work decays cubically toward the end while
    FACT work decays only linearly.
    """
    from .ascii_chart import line_chart

    ks = [float(r.k) for r in rows]
    return line_chart(
        {
            "UPDATE Mflop": (ks, [r.flops.get("UPDATE", 0.0) / 1e6 for r in rows]),
            "FACT Mflop": (ks, [r.flops.get("FACT", 0.0) / 1e6 for r in rows]),
        },
        width=width,
        height=height,
        title="measured per-iteration work (numeric engine)",
        xlabel="iteration",
        ylabel="Mflop",
    )
