"""Fig. 7 from the *numeric* engine's own instrumentation.

The performance simulator produces modeled per-iteration breakdowns; this
module produces the measured twin from a real `run_hpl` run's phase
timers.  The wall times are host times of the Python engine (diagnostic,
not the paper's hardware), but the *flop series* is exact and its shape —
cubic-decay UPDATE work against linearly-decaying FACT work — is the
arithmetic skeleton underneath the paper's two regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hpl.timers import Timers

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


def measured_breakdown(all_timers: list[Timers]) -> list[MeasuredIteration]:
    """Aggregate every rank's per-iteration ledgers into one series.

    Seconds and flops are summed across ranks (ranks execute phases
    concurrently in the real system, so sums are *work*, not critical
    path); the preamble iteration (k = -1) is folded into iteration 0.
    """
    by_k: dict[int, MeasuredIteration] = {}
    for timers in all_timers:
        for ledger in timers.iters:
            k = max(ledger.k, 0)
            row = by_k.setdefault(k, MeasuredIteration(k))
            for label, rec in ledger.phases.items():
                if label == "TRANSFER":
                    row.d2h_bytes += rec.d2h_bytes
                    row.h2d_bytes += rec.h2d_bytes
                    continue
                row.seconds[label] = row.seconds.get(label, 0.0) + rec.seconds
                row.flops[label] = row.flops.get(label, 0.0) + rec.flops
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
