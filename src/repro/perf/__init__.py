"""Benchmark-level performance simulation (the paper's evaluation).

* :mod:`repro.perf.ledger` -- exact per-iteration work/volume formulas from
  the block-cyclic distribution (``run_sizes``), priced by
  :mod:`repro.machine` for all iterations at once into
  :class:`~repro.sched.fastpath.CostArrays` (``run_cost_arrays``).
* :mod:`repro.perf.hplsim` -- runs the timeline simulation for a whole
  benchmark and produces the per-iteration breakdown of Fig. 7 plus the
  headline score.
* :mod:`repro.perf.scaling` -- the weak-scaling study of Fig. 8.
* :mod:`repro.perf.factsim` -- the FACT multi-threading study of Fig. 5.
* :mod:`repro.perf.generations` -- the Section V compute-vs-network sweep.
* :mod:`repro.perf.hostresident` -- the related-work host-resident baseline.
* :mod:`repro.perf.measured` -- Fig. 7's measured twin from the numeric
  engine's instrumentation.
* :mod:`repro.perf.ascii_chart` -- terminal rendering of the figures.
* :mod:`repro.perf.report` -- rocHPL-style result printers.
"""

from .ledger import (
    PerfConfig,
    preamble_costs,
    run_cost_arrays,
    run_costs,
    run_sizes,
)
from .hplsim import IterBreakdown, RunReport, simulate_run, simulate_timeline
from .scaling import ScalePoint, choose_grid, weak_scaling
from .factsim import fact_sweep
from .generations import GenerationPoint, generational_sweep
from .hostresident import HostResidentPoint, simulate_host_resident
from .measured import MeasuredIteration, measured_breakdown

__all__ = [
    "PerfConfig",
    "preamble_costs",
    "run_costs",
    "run_cost_arrays",
    "run_sizes",
    "IterBreakdown",
    "RunReport",
    "simulate_run",
    "simulate_timeline",
    "ScalePoint",
    "choose_grid",
    "weak_scaling",
    "fact_sweep",
    "GenerationPoint",
    "generational_sweep",
    "HostResidentPoint",
    "simulate_host_resident",
    "MeasuredIteration",
    "measured_breakdown",
]
