"""Figure 7: per-iteration timing breakdown, single Crusher node.

Regenerates the N=256,000 / NB=512 / 4x2 / 50-50-split run on the machine
model, writes the full per-iteration series (total, GPU-active, FACT,
MPI, transfer -- the five series plotted in Fig. 7), and checks the
figure's claims on it: the two regimes, the transition point, and the
stacked components taking over the tail.
"""

from __future__ import annotations

from repro.machine.frontier import crusher_cluster
from repro.perf.claims import FIG7, Bundle
from repro.perf.hplsim import simulate_run
from repro.perf.report import format_breakdown_table, format_run_report

from .conftest import assert_claims, write_artifact


def test_fig7_series(benchmark, artifact_dir):
    fresh = benchmark.pedantic(
        simulate_run, args=(FIG7, crusher_cluster(1)), rounds=1, iterations=1
    )
    write_artifact(
        "fig7_breakdown.txt",
        format_run_report(fresh) + "\n" + format_breakdown_table(fresh, stride=10),
    )
    assert len(fresh.iterations) == 500
    written = Bundle()
    written.fig7 = fresh
    assert_claims(
        written, "fig7.early_regime_hidden", "fig7.crossover", "fig7.tail_exposed",
        "fig7.tail_critical_path", "fig7.gpu_leaves_tail",
        "fig7.iteration_time_shrinks",
    )
