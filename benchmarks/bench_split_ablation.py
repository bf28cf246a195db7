"""Section III.C ablation: the split fraction and the schedule ladder.

The paper leaves the split fraction as a tuning input and reports that a
50-50 left-right split is optimal on a single Frontier/Crusher node; this
bench writes the fraction and schedule sweeps of the claims registry's
bundle and checks their claims.
"""

from __future__ import annotations

import dataclasses
import io

from repro.config import Schedule
from repro.perf.claims import FIG7, NODE
from repro.perf.hplsim import simulate_run

from .conftest import assert_claims, write_artifact


def _time_one(benchmark, **change) -> None:
    cfg = dataclasses.replace(FIG7, **change)
    benchmark.pedantic(simulate_run, args=(cfg, NODE), rounds=1, iterations=1)


def test_split_fraction_sweep(benchmark, bundle, artifact_dir):
    """'splitting the local A matrix in half ... works optimally.'"""
    _time_one(benchmark, split_fraction=0.9)
    out = io.StringIO()
    out.write(f"{'fraction':>10s}{'TFLOPS':>10s}{'hidden%':>10s}\n")
    for frac, rep in bundle.split_sweep.items():
        out.write(f"{frac:>10.2f}{rep.score_tflops:>10.1f}"
                  f"{rep.hidden_time_fraction * 100:>10.1f}\n")
    write_artifact("split_fraction_sweep.txt", out.getvalue())
    assert_claims(bundle, "sec3c.split_fraction_optimum",
                  "sec3c.hidden_needs_half", "fig7.hidden_time_fraction")


def test_schedule_ladder(benchmark, bundle, artifact_dir):
    """Each optimization layer helps at the full problem size."""
    _time_one(benchmark, schedule=Schedule.CLASSIC)
    out = "\n".join(f"{s.value:>12s}: {bundle.schedules[FIG7.n, s]:8.1f} TFLOPS"
                    for s in Schedule)
    write_artifact("schedule_ladder.txt", out + "\n")
    assert_claims(bundle, "sec3c.schedule_ladder", "sec3c.split_gain_grows_with_n")
