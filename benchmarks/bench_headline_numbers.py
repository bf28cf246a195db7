"""Section IV.A's reported numbers, regenerated.

The single-node narrative quotes a chain of figures; this bench computes
each one on the models and writes a paper-vs-measured table:

* DGEMM at NB=512 achieves 49 TFLOPS per MI250X (24.5 per GCD);
* the achievable node ceiling is 4 x 49 = 196 TFLOPS;
* the early fully-hidden regime runs at ~90 % of that limit (~175);
* the full run scores ~153 TFLOPS = 78 % of the ceiling;
* all MPI hidden for ~75 % of execution *time* (Sec. III.C) and ~50 % of
  *iterations* (Sec. V);
* "we typically choose NB = 512 to strike this balance".
"""

from __future__ import annotations

import io

from repro.machine.frontier import crusher_node
from repro.machine.gemm_model import dgemm_tflops

from .conftest import assert_claims, write_artifact


def test_headline_numbers(benchmark, bundle, artifact_dir):
    benchmark(dgemm_tflops, crusher_node().gpu, 60_000, 120_000, 512)
    report, per_gcd = bundle.fig7, bundle.dgemm_per_gcd
    ceiling = 8 * per_gcd
    rows = [
        ("DGEMM per MI250X @ NB=512 (TFLOPS)", 49.0, 2 * per_gcd),
        ("achievable node ceiling (TFLOPS)", 196.0, ceiling),
        ("early-regime rate (TFLOPS)", 175.0, report.early_regime_tflops()),
        ("final score (TFLOPS)", 153.0, report.score_tflops),
        ("score / ceiling", 0.78, report.score_tflops / ceiling),
        ("hidden fraction of wall time", 0.75, report.hidden_time_fraction),
        ("hidden fraction of iterations", 0.50, report.hidden_iteration_fraction),
    ]
    out = io.StringIO()
    out.write(f"{'quantity':<40s}{'paper':>10s}{'ours':>10s}\n")
    for name, paper, ours in rows:
        out.write(f"{name:<40s}{paper:>10.2f}{ours:>10.2f}\n")
    write_artifact("headline_numbers.txt", out.getvalue())

    assert_claims(
        bundle, "sec4a.dgemm_per_mi250x", "sec4a.node_ceiling", "fig7.score",
        "fig7.score_fraction_of_ceiling", "fig7.early_regime_rate",
        "fig7.hidden_time_fraction", "fig7.hidden_iteration_fraction",
        "sec4a.nb512_sweet_spot",
    )
