#!/usr/bin/env python
"""Reproduce the paper's single-node evaluation (Section IV.A, Fig. 7).

Simulates the N=256,000 / NB=512 / 4x2 run on the Crusher machine model
and prints:

* the per-iteration timing breakdown (total, GPU-active, FACT, MPI,
  transfer) -- the series plotted in Fig. 7;
* the run-level numbers the paper reports: the ~153 TFLOPS score (78 % of
  the 4 x 49 TFLOPS DGEMM ceiling), the ~175 TFLOPS early-regime rate,
  and the ~75 % of wall time with all communication hidden.

Then it runs the *numeric* engine at a laptop-sized N on the same
schedule to show both halves of the library agree on the algorithm.

Usage::

    python examples/single_node_breakdown.py
"""

from repro import HPLConfig, run_hpl
from repro.machine.frontier import CRUSHER_NB, CRUSHER_SINGLE_NODE_N, crusher_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import PerfConfig
from repro.perf.report import format_breakdown_table, format_run_report


def main() -> None:
    cfg = PerfConfig(
        n=CRUSHER_SINGLE_NODE_N, nb=CRUSHER_NB, p=4, q=2, pl=4, ql=2
    )
    print("=== Simulated single Crusher node (paper Sec. IV.A) ===")
    report = simulate_run(cfg, crusher_cluster(1))
    print(format_run_report(report))
    print("Paper's anchors: 153 TFLOPS score, 78% of the 196 TFLOPS "
          "ceiling,\n~175 TFLOPS early regime, comm fully hidden for "
          "~75% of the run.\n")

    print("Per-iteration breakdown (Fig. 7 series, every 50th iteration):")
    print(format_breakdown_table(report, stride=50))

    print(f"Two regimes: iteration time == GPU-active time up to iteration "
          f"{report.first_exposed} of {len(report.k)},\nthen FACT + MPI + "
          "transfers take over the critical path (the paper sees ~250/500).\n")

    print("=== Numeric engine on the same schedule (small N) ===")
    num_cfg = HPLConfig(n=512, nb=64, p=2, q=2, fact_threads=4)
    result = run_hpl(num_cfg)
    print(f"n={num_cfg.n}: residual {result.resid:.3e} -> "
          f"{'PASSED' if result.passed else 'FAILED'}")


if __name__ == "__main__":
    main()
