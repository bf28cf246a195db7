#!/usr/bin/env python
"""Reproduce the FACT multi-threading study (Section III.A, Fig. 5).

Two parts:

1. The Fig. 5 sweep on the calibrated CPU model: GFLOPS of factoring an
   ``M x 512`` panel for M in multiples of NB and 1..64 threads.  The
   paper's takeaways -- threading helps dramatically, and many cores pay
   off even at modest M -- are visible in the table.

2. A *real* tiled multi-threaded factorization with the library's worker
   pool, verifying the algorithm is exactly thread-count-invariant (this
   box may not have 64 cores, so we check correctness, not speed).

Usage::

    python examples/panel_threading.py
"""

import numpy as np

from repro.blas.threaded import TileWorkerPool
from repro.config import HPLConfig, Schedule
from repro.grid.block_cyclic import local_indices
from repro.hpl.pfact import factor_panel
from repro.perf.factsim import fact_sweep
from repro.perf.report import format_fact_table
from repro.simmpi import run_spmd


def model_sweep() -> None:
    print("=== Fig. 5 (model): FACT GFLOPS, M x 512 panel ===")
    print(format_fact_table(fact_sweep()))
    curves = {c.threads: c for c in fact_sweep()}
    speedup = curves[64].gflops[-1] / curves[1].gflops[-1]
    print(f"64-thread speedup over 1 thread at the largest M: {speedup:.1f}x\n")


def real_threaded_fact() -> None:
    print("=== Real tiled multi-threaded panel factorization ===")
    m, nb, p = 256, 32, 2
    rng = np.random.default_rng(7)
    a_global = np.asfortranarray(rng.standard_normal((m, nb)))

    def factor(threads: int):
        cfg = HPLConfig(
            n=m, nb=nb, p=p, q=1, schedule=Schedule.CLASSIC,
            fact_threads=threads,
        )

        def main(comm):
            pos = local_indices(m, nb, comm.rank, p)
            local = np.asfortranarray(a_global[pos, :])
            with TileWorkerPool(threads) as pool:
                panel = factor_panel(
                    comm, local, pos, 0, 0, nb, cfg, pool, comm.rank, p
                )
            return panel.w, panel.ipiv

        return run_spmd(p, main)[0]

    w1, ipiv1 = factor(1)
    for threads in (2, 4, 8):
        w, ipiv = factor(threads)
        identical = np.array_equal(w, w1) and np.array_equal(ipiv, ipiv1)
        print(f"T={threads}: factorization bitwise identical to T=1: {identical}")
    print("\n(The tiling assigns NB-row tiles round-robin -- Fig. 4 -- so "
          "each row's\narithmetic history is independent of the thread "
          "count.)")


if __name__ == "__main__":
    model_sweep()
    real_threaded_fact()
