"""Figures 3 and 6: the iteration execution timelines.

The paper's timeline diagrams make structural claims about what overlaps
what; these benches build the corresponding DAGs with realistic costs from
the ledger, execute them on the event engine, and check the registry's
claims (``fig3.*``, ``fig6.*``):

* Fig. 3 (look-ahead): transfers, FACT and LBCAST hide behind the trailing
  update; the RS communication does not.
* Fig. 6 (split update): every phase hides -- iteration time equals GPU
  busy time.

Also benchmarks the raw event-engine throughput.
"""

from __future__ import annotations

import dataclasses

from repro.config import Schedule
from repro.perf.claims import FIG7, NODE, Bundle
from repro.perf.hplsim import simulate_timeline
from repro.sched.engine import Task, simulate

from .conftest import assert_claims, write_artifact


def _gantt(result, tag: int) -> str:
    lines = [f"{'task':<20s}{'res':>5s}{'start_ms':>10s}{'end_ms':>10s}"]
    for t in sorted(result.tasks_tagged(tag), key=lambda t: t.start):
        lines.append(
            f"{t.name:<20s}{t.resource or '-':>5s}"
            f"{t.start * 1e3:>10.2f}{t.end * 1e3:>10.2f}"
        )
    return "\n".join(lines) + "\n"


def _timeline(benchmark, schedule: Schedule, name: str) -> Bundle:
    """Time and write one schedule's Fig. 7-run timeline (its iteration 5,
    an early steady-state one); a bundle holding it for the claims."""
    cfg = dataclasses.replace(FIG7, schedule=schedule)
    result = benchmark.pedantic(simulate_timeline, args=(cfg, NODE),
                                rounds=1, iterations=1)
    write_artifact(name, _gantt(result, 5))
    written = Bundle()
    written.timelines = {schedule: result}
    return written


def test_fig3_lookahead_timeline(benchmark, artifact_dir):
    """An early look-ahead iteration: only RS comm extends past GPU work."""
    written = _timeline(benchmark, Schedule.LOOKAHEAD, "fig3_lookahead_gantt.txt")
    assert_claims(written, "fig3.fact_hidden", "fig3.rs_exposed")


def test_fig6_split_timeline(benchmark, artifact_dir):
    """An early split-update iteration: everything hides behind the GPU."""
    written = _timeline(benchmark, Schedule.SPLIT_UPDATE, "fig6_split_gantt.txt")
    assert_claims(written, "fig6.iteration_is_gpu_busy", "fig6.rs_inside_updates")


def test_engine_throughput(benchmark):
    """Raw list-scheduling speed: a 50k-task chain across 4 resources."""

    def build_and_run():
        tasks = []
        prev = None
        for i in range(50_000):
            t = Task(
                f"t{i}", 1e-6, ("gpu", "cpu", "mpi", "hd")[i % 4],
                deps=[prev] if prev is not None and i % 3 == 0 else [],
            )
            tasks.append(t)
            prev = t
        return simulate(tasks).makespan

    makespan = benchmark(build_and_run)
    assert makespan > 0
