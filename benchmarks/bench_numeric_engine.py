"""Wall-clock benchmarks of the *numeric* engine.

These do not reproduce paper numbers (the numeric engine runs on the host
CPU through numpy/scipy, not on MI250Xs); they track the reproduction's
own performance: full solves per schedule, the panel factorization
kernel, the row-swap machinery, and the simulated-MPI collectives.
"""

from __future__ import annotations

import numpy as np

from repro.config import HPLConfig, Schedule
from repro.hpl.api import run_hpl
from repro.simmpi import run_spmd


def _solve(sched: Schedule) -> float:
    cfg = HPLConfig(
        n=96, nb=16, p=2, q=2, schedule=sched, check=False,
    )
    return run_hpl(cfg).wall_seconds


def test_solve_classic(benchmark):
    benchmark(_solve, Schedule.CLASSIC)


def test_solve_lookahead(benchmark):
    benchmark(_solve, Schedule.LOOKAHEAD)


def test_solve_split_update(benchmark):
    benchmark(_solve, Schedule.SPLIT_UPDATE)


def test_solve_multithreaded_fact(benchmark):
    cfg = HPLConfig(n=96, nb=16, p=2, q=2, fact_threads=4, check=False)
    benchmark(run_hpl, cfg)


def test_collectives_allgatherv(benchmark):
    """Ring allgatherv of 1 MB across 4 ranks (the RS building block)."""

    def job():
        def main(comm):
            chunk = np.zeros(32_768)  # 256 KB per rank
            return comm.allgatherv(chunk)[0].size

        return run_spmd(4, main)

    benchmark(job)


def test_collectives_panel_bcast(benchmark):
    """1ringM broadcast of a 1 MB panel buffer across 4 ranks."""

    def job():
        def main(comm):
            buf = np.zeros(131_072) if comm.rank == 0 else None
            return comm.bcast(buf, root=0, algo="1ringM").size

        return run_spmd(4, main)

    benchmark(job)


def test_pivot_allreduce(benchmark):
    """The FACT inner loop's collective: max-loc allreduce of a row."""

    def combine(a, b):
        return a if (a[0], -a[1]) >= (b[0], -b[1]) else b

    def job():
        def main(comm):
            payload = (float(comm.rank), comm.rank, np.zeros(512))
            return comm.allreduce(payload, op=combine)[0]

        return run_spmd(4, main)

    benchmark(job)
