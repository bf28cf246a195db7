"""Figure 7: per-iteration timing breakdown, single Crusher node.

Regenerates the N=256,000 / NB=512 / 4x2 / 50-50-split run on the machine
model, writes the full per-iteration series (total, GPU-active, FACT,
MPI, transfer -- the five series plotted in Fig. 7), and asserts the
figure's qualitative content: the two regimes, the transition point, and
the stacked components taking over the tail.
"""

from __future__ import annotations

import pytest

from repro.machine.frontier import crusher_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import PerfConfig
from repro.perf.report import format_breakdown_table, format_run_report

from .conftest import write_artifact

CFG = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)


@pytest.fixture(scope="module")
def report():
    return simulate_run(CFG, crusher_cluster(1))


def test_fig7_series(benchmark, report, artifact_dir):
    fresh = benchmark.pedantic(
        simulate_run, args=(CFG, crusher_cluster(1)), rounds=1, iterations=1
    )
    write_artifact(
        "fig7_breakdown.txt",
        format_run_report(fresh) + "\n" + format_breakdown_table(fresh, stride=10),
    )
    assert len(fresh.iterations) == 500


def test_fig7_early_regime_gpu_bound(report):
    """'At the beginning ... per-iteration time precisely corresponds to
    the total GPU time' -- all phases hidden."""
    head = report.iterations[:200]
    assert all(it.hidden for it in head)
    for it in head[:50]:
        assert it.time == pytest.approx(it.gpu_active, rel=0.02)


def test_fig7_transition_around_iteration_250(report):
    """'Around iteration 250, the left section ... is too small to
    adequately hide the RS2 communication.'"""
    assert 200 <= report.first_exposed <= 300


def test_fig7_tail_critical_path_is_fact_mpi_transfer(report):
    """'These combined phases become the critical path ... for the
    remainder of the benchmark execution.'"""
    tail = report.iterations[-120:-2]
    assert all(not it.hidden for it in tail)
    for it in tail:
        stacked = it.fact + it.mpi + it.transfer
        assert stacked > 0.75 * it.time

    head_rate = sum(it.gpu_active for it in report.iterations[:50]) / 50
    tail_rate = sum(it.gpu_active for it in tail) / len(tail)
    assert tail_rate < 0.2 * head_rate  # GPU activity off the critical path


def test_fig7_iteration_time_shrinks(report):
    times = [it.time for it in report.iterations]
    assert sum(times[:100]) > 5 * sum(times[-100:])
