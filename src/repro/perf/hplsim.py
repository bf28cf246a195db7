"""Full-benchmark performance simulation: the paper's Figure 7 and score.

``simulate_run`` prices every iteration with the ledger, resolves the
schedule's chained task DAGs -- in closed form, or task by task on the
in-order-resource engine -- and extracts exactly the series rocHPL's
per-iteration timers print:

* total time per iteration and GPU active time per iteration (the black
  and green lines of Fig. 7),
* stacked FACT / MPI / host-transfer time per iteration (the red, blue
  and yellow areas),

plus run-level aggregates: the final score, the fraction of runtime in
the fully-hidden regime, and the early-regime running throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
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


@dataclass
class RunReport:
    """Aggregate result of one simulated benchmark run."""

    cfg: PerfConfig
    makespan: float
    score_tflops: float
    iterations: list[IterBreakdown] = field(default_factory=list)

    @property
    def hidden_time_fraction(self) -> float:
        """Fraction of wall time spent in fully-hidden iterations.

        The paper reports ~75 % for the split update on one node.
        """
        hidden = sum(it.time for it in self.iterations if it.hidden)
        total = sum(it.time for it in self.iterations)
        return hidden / total if total else 0.0

    @property
    def hidden_iteration_fraction(self) -> float:
        """Fraction of iterations that are fully hidden (~50 % in Sec. V)."""
        if not self.iterations:
            return 0.0
        return sum(1 for it in self.iterations if it.hidden) / len(self.iterations)

    def early_regime_tflops(self, fraction: float = 0.2) -> float:
        """Running throughput over the first ``fraction`` of iterations.

        The paper reports ~175 TFLOPS (90 % of the 196 ceiling) here.
        """
        cut = max(1, int(len(self.iterations) * fraction))
        head = self.iterations[:cut]
        seconds = sum(it.time for it in head)
        flops = 0.0
        n, nb = self.cfg.n, self.cfg.nb
        for it in head:
            trail = n - it.k * nb
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

    ``fidelity`` overrides ``cfg.fidelity``: ``"fast"`` evaluates the
    closed-form vectorized timeline (bit-identical report, order of
    magnitude faster), ``"full"`` walks the per-task object engine (use
    it when traces or per-message simmpi events are needed).  Both read
    the same memoized :func:`~repro.perf.ledger.run_cost_arrays`.
    """
    mode = fidelity if fidelity is not None else cfg.fidelity
    if mode not in ("fast", "full"):
        raise ConfigError(f"fidelity must be 'fast' or 'full', got {mode!r}")
    arrays = run_cost_arrays(cfg, cluster)
    ks = arrays.k.tolist()
    if mode == "full":
        tl = simulate_timeline(cfg, cluster)
        makespan = tl.makespan
        prev_end = tl.span_of_tag(-1)[1] if arrays.preamble is not None else 0.0
        rows = (
            (
                tl.span_of_tag(k)[1],
                tl.busy_in_tag(k, "gpu"),
                tl.phase_in_tag(k, "FACT"),
                tl.phase_in_tag(k, "MPI"),
                tl.phase_in_tag(k, "TRANSFER"),
            )
            for k in ks
        )
    else:
        fast = evaluate(arrays)
        makespan = fast.makespan
        prev_end = fast.preamble_end
        rows = zip(
            fast.end.tolist(),
            fast.gpu_busy.tolist(),
            fast.fact_busy.tolist(),
            fast.mpi_busy.tolist(),
            fast.transfer_busy.tolist(),
        )
    report = RunReport(
        cfg=cfg, makespan=makespan, score_tflops=cfg.total_flops / makespan / 1e12
    )
    for k, (end, gpu, fact, mpi, transfer) in zip(ks, rows):
        report.iterations.append(
            IterBreakdown(
                k=k,
                time=end - prev_end,
                gpu_active=gpu,
                fact=fact,
                mpi=mpi,
                transfer=transfer,
            )
        )
        prev_end = end
    return report
