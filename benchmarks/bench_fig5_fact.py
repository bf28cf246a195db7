"""Figure 5: FACT GFLOPS vs panel height, per thread count.

Regenerates the sweep (NB = 512, M in multiples of NB, threads 1..64 in
powers of two) on the calibrated CPU model, checks the paper's stated
takeaways through the claims registry, and benchmarks both the model
sweep and the *real* tiled multi-threaded factorization kernel.
"""

from __future__ import annotations

import numpy as np

from repro.blas.threaded import TileWorkerPool
from repro.config import HPLConfig, Schedule
from repro.grid.block_cyclic import local_indices
from repro.hpl.pfact import factor_panel
from repro.perf.claims import Bundle
from repro.perf.factsim import fact_sweep
from repro.perf.report import format_fact_table
from repro.simmpi import run_spmd

from .conftest import assert_claims, write_artifact


def test_fig5_series(benchmark, artifact_dir):
    """The Fig. 5 table: rates rise with threads and with M."""
    written = Bundle()
    written.fact = benchmark(fact_sweep)
    write_artifact("fig5_fact_gflops.txt", format_fact_table(written.fact))
    assert_claims(
        written, "fig5.threading_gain", "fig5.small_m_gain",
        "fig5.thread_doubling", "fig5.rises_with_m",
    )


def test_fig5_real_threaded_kernel(benchmark):
    """Benchmark the actual tiled multi-threaded factorization (the
    measured counterpart of the modeled sweep; this host may have a
    single core, so only correctness-per-thread is asserted)."""
    m, nb = 256, 32
    rng = np.random.default_rng(3)
    a_global = np.asfortranarray(rng.standard_normal((m, nb)))
    cfg = HPLConfig(
        n=m, nb=nb, p=1, q=1, schedule=Schedule.CLASSIC, fact_threads=4
    )

    def run_fact():
        def main(comm):
            pos = local_indices(m, nb, 0, 1)
            local = np.asfortranarray(a_global[pos, :])
            with TileWorkerPool(cfg.fact_threads) as pool:
                return factor_panel(comm, local, pos, 0, 0, nb, cfg, pool, 0, 1)

        return run_spmd(1, main)[0]

    panel = benchmark(run_fact)
    assert panel.ipiv.shape == (nb,)
