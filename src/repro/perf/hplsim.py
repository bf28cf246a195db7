"""Full-benchmark performance simulation: the paper's Figure 7 and score.

``simulate_run`` prices every iteration with the ledger, resolves the
schedule's chained task DAGs in closed form (traces:
``simulate_timeline``, the same DAGs task by task on the
in-order-resource engine) and extracts exactly the series rocHPL's
per-iteration timers print:

* total time per iteration and GPU active time per iteration (the black
  and green lines of Fig. 7),
* stacked FACT / MPI / host-transfer time per iteration (the red, blue
  and yellow areas),

plus run-level aggregates: the final score, the fraction of runtime in
the fully-hidden regime, and the early-regime running throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..machine.spec import ClusterSpec
from ..sched.engine import TimelineResult, simulate
from ..sched.fastpath import evaluate
from ..sched.timeline import build_run
from .ledger import PerfConfig, run_cost_arrays, run_costs


@dataclass
class IterBreakdown:
    """One iteration's timing record (one point of each Fig. 7 series)."""

    k: int
    time: float  # wall time this iteration added to the run
    gpu_active: float  # GPU busy seconds within the iteration
    fact: float  # CPU panel-factorization seconds
    mpi: float  # MPI communication seconds
    transfer: float  # host-device transfer seconds

    @property
    def hidden(self) -> bool:
        """Is everything hidden behind GPU activity (iter time == GPU time)?"""
        return self.time <= self.gpu_active * 1.02 + 1e-9


@dataclass(eq=False)
class RunReport:
    """Aggregate result of one simulated benchmark run.

    The per-iteration series are the data: six aligned read-only columns,
    one row per iteration, with the meaning of the like-named
    :class:`IterBreakdown` fields.  ``iterations`` is a row-wise view of
    them, built on first use.  The aggregates sum their columns left to
    right (``sum`` over a list), as a loop over ``iterations`` would:
    numpy's pairwise ``sum`` rounds differently.
    """

    cfg: PerfConfig
    makespan: float
    score_tflops: float
    k: np.ndarray
    time: np.ndarray
    gpu_active: np.ndarray
    fact: np.ndarray
    mpi: np.ndarray
    transfer: np.ndarray

    def __post_init__(self) -> None:
        for column in self._columns():
            column.setflags(write=False)

    def _columns(self) -> tuple[np.ndarray, ...]:
        """In :class:`IterBreakdown`'s field order."""
        return self.k, self.time, self.gpu_active, self.fact, self.mpi, self.transfer

    @cached_property
    def hidden(self) -> np.ndarray:
        """Per iteration, :attr:`IterBreakdown.hidden`'s formula."""
        hidden = self.time <= self.gpu_active * 1.02 + 1e-9
        hidden.setflags(write=False)
        return hidden

    @cached_property
    def iterations(self) -> list[IterBreakdown]:
        """The columns as one :class:`IterBreakdown` per iteration."""
        rows = zip(*(column.tolist() for column in self._columns()))
        return [IterBreakdown(*row) for row in rows]

    @property
    def hidden_time_fraction(self) -> float:
        """Fraction of wall time spent in fully-hidden iterations.

        The paper reports ~75 % for the split update on one node.
        """
        hidden = sum(self.time[self.hidden].tolist())
        total = sum(self.time.tolist())
        return hidden / total if total else 0.0

    @property
    def hidden_iteration_fraction(self) -> float:
        """Fraction of iterations that are fully hidden (~50 % in Sec. V)."""
        if not len(self.k):
            return 0.0
        return int(np.count_nonzero(self.hidden)) / len(self.k)

    @property
    def first_exposed(self) -> int | None:
        """The first iteration that is not hidden (``None`` when all are).

        Where the paper's two regimes cross: near iteration 250 of 500 on
        the Fig. 7 run.
        """
        exposed = np.flatnonzero(~self.hidden)
        return int(self.k[exposed[0]]) if len(exposed) else None

    def early_regime_tflops(self, fraction: float = 0.2) -> float:
        """Running throughput over the first ``fraction`` of iterations.

        The paper reports ~175 TFLOPS (90 % of the 196 ceiling) here.
        """
        cut = max(1, int(len(self.k) * fraction))
        seconds = sum(self.time[:cut].tolist())
        flops = 0.0
        n, nb = self.cfg.n, self.cfg.nb
        for k in self.k[:cut].tolist():
            trail = n - k * nb
            jb = min(nb, trail)
            # flops of iteration k: panel + dtrsm + rank-jb update
            flops += 2.0 * (trail - jb) * (trail + 1 - jb) * jb + jb * jb * (
                trail + 1 - jb
            )
        return flops / seconds / 1e12 if seconds > 0 else 0.0


def simulate_timeline(cfg: PerfConfig, cluster: ClusterSpec) -> TimelineResult:
    """Materialize the run as tasks and resolve them on the object engine.

    The only producer of per-task timelines (Chrome traces, Gantt rows).
    """
    return simulate(build_run(run_costs(cfg, cluster)))


def simulate_run(
    cfg: PerfConfig, cluster: ClusterSpec, fidelity: str | None = None
) -> RunReport:
    """Simulate a full benchmark run; returns the per-iteration report.

    Prices the run once (the memoized
    :func:`~repro.perf.ledger.run_cost_arrays`) and resolves its timeline
    in closed form; traces: :func:`simulate_timeline`.
    ``fidelity``: ignored; goes with the PR that retargets ``fig7_full``.
    """
    arrays = run_cost_arrays(cfg, cluster)
    run = evaluate(arrays)
    return RunReport(
        cfg=cfg,
        makespan=run.makespan,
        score_tflops=cfg.total_flops / run.makespan / 1e12,
        k=arrays.k,
        # Elementwise end[i] - end[i-1]: the subtraction a loop would do.
        time=np.diff(run.end, prepend=run.preamble_end),
        gpu_active=run.gpu_busy,
        fact=run.fact_busy,
        mpi=run.mpi_busy,
        transfer=run.transfer_busy,
    )
