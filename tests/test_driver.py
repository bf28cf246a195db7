"""The factorization driver: all schedules, equivalence, and ledgers."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.config import HPLConfig, PFactVariant, Schedule
from repro.errors import ConfigError
from repro.grid import ProcessGrid
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix, generate_global

from .conftest import spmd


def _factor(cfg: HPLConfig):
    """Run factorize on the SPMD runtime; return (global matrix, ipiv, timers)."""

    def main(comm):
        grid = ProcessGrid(comm, cfg.p, cfg.q)
        mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
        result = factorize(mat, cfg)
        return mat.gather_global(), result.ipiv, result.timers

    outs = spmd(cfg.nranks, main)
    return outs[0][0], outs[0][1], [o[2] for o in outs]


def _reference_lu(n: int, seed: int):
    """Serial blocked LU with partial pivoting on the augmented system."""
    import scipy.linalg

    a, b = generate_global(n, seed)
    aug = np.concatenate([a, b[:, None]], axis=1)
    lu, piv = scipy.linalg.lu_factor(a)
    # apply the same pivots to b to get b_hat = L^{-1} P b
    bb = b.copy()
    for i, p in enumerate(piv):
        bb[[i, p]] = bb[[p, i]]
    l = np.tril(lu, -1) + np.eye(n)
    bb = np.linalg.solve(l, bb)
    return lu, piv, bb


class TestAgainstLapack:
    @pytest.mark.parametrize(
        "sched", [Schedule.CLASSIC, Schedule.LOOKAHEAD, Schedule.SPLIT_UPDATE]
    )
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 2)])
    def test_factored_matrix_matches_lapack(self, sched, p, q):
        """U, b_hat and the pivot sequence match LAPACK.

        The L storage intentionally differs: LAPACK's laswp retro-swaps
        the already-computed multiplier columns, while HPL leaves earlier
        L columns in place (only trailing columns are row-swapped), so
        only the upper-triangular part is storage-comparable.
        """
        cfg = HPLConfig(
            n=32, nb=4, p=p, q=q, schedule=sched,
            depth=0 if sched is Schedule.CLASSIC else 1,
        )
        full, ipiv, _ = _factor(cfg)
        lu, piv, b_hat = _reference_lu(32, cfg.seed)
        assert np.allclose(np.triu(full[:, :32]), np.triu(lu), atol=1e-10)
        assert np.allclose(full[:, 32], b_hat, atol=1e-10)
        flat = np.concatenate(ipiv)
        assert np.array_equal(flat, piv)


class TestScheduleEquivalence:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3)])
    def test_all_schedules_produce_identical_factorization(self, p, q):
        results = {}
        for sched in Schedule:
            cfg = HPLConfig(
                n=36, nb=6, p=p, q=q, schedule=sched,
                depth=0 if sched is Schedule.CLASSIC else 1,
            )
            results[sched] = _factor(cfg)
        base_full, base_ipiv, _ = results[Schedule.CLASSIC]
        for sched, (full, ipiv, _) in results.items():
            assert np.allclose(full, base_full, atol=1e-12), sched
            assert all(
                np.array_equal(a, b) for a, b in zip(ipiv, base_ipiv)
            ), sched

    @pytest.mark.parametrize("frac", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_split_fraction_never_changes_results(self, frac):
        base = None
        cfg = HPLConfig(n=40, nb=8, p=2, q=2, split_fraction=frac)
        full, ipiv, _ = _factor(cfg)
        ref_cfg = cfg.replace(schedule=Schedule.LOOKAHEAD)
        ref_full, ref_ipiv, _ = _factor(ref_cfg)
        assert np.allclose(full, ref_full, atol=1e-12)

    @pytest.mark.parametrize("sched", list(Schedule))
    @pytest.mark.parametrize("variant", list(PFactVariant))
    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    def test_threads_do_not_change_results(self, threads, variant, sched):
        """FACT thread count never moves a bit: factors and pivots equal the
        single-threaded run's for every leaf variant and schedule."""
        full, ipiv, _ = _factor(_threads_cfg(sched, variant, threads))
        base_full, base_ipiv = _single_thread_factor(sched, variant)
        assert np.array_equal(full, base_full)
        assert all(np.array_equal(a, b) for a, b in zip(ipiv, base_ipiv))


def _threads_cfg(sched: Schedule, variant: PFactVariant, threads: int) -> HPLConfig:
    # nbmin 4 < nb 8: every panel recurses once before its leaves.
    return HPLConfig(
        n=48, nb=8, p=2, q=2, schedule=sched,
        depth=0 if sched is Schedule.CLASSIC else 1,
        pfact=variant, rfact=variant, nbmin=4, fact_threads=threads,
    )


@functools.lru_cache(maxsize=None)
def _single_thread_factor(sched: Schedule, variant: PFactVariant):
    full, ipiv, _ = _factor(_threads_cfg(sched, variant, 1))
    return full, ipiv


class TestLedgers:
    def test_phase_flops_match_closed_forms(self):
        """Measured per-phase flop totals equal the analytic formulas the
        performance ledger is built on."""
        n, nb, p, q = 32, 4, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC, depth=0)
        _, _, all_timers = _factor(cfg)

        fact_measured = sum(t.total("FACT").flops for t in all_timers)
        update_measured = sum(t.total("UPDATE").flops for t in all_timers)

        fact_expected = 0.0
        update_expected = 0.0
        for k in range(n // nb):
            m = n - k * nb  # panel rows
            trail_rows = m - nb
            trail_cols = n + 1 - (k + 1) * nb
            # FACT: scale (m') + rank-1/gemv updates summed per column
            for j in range(nb):
                rows = m - j - 1
                fact_expected += rows  # scaling
                fact_expected += 2.0 * rows * (nb - j - 1)  # trailing update
            # UPDATE: dtrsm duplicated across the p process rows + dgemm
            update_expected += p * nb * nb * trail_cols
            update_expected += 2.0 * trail_rows * trail_cols * nb

        assert fact_measured == pytest.approx(fact_expected, rel=1e-12)
        assert update_measured == pytest.approx(update_expected, rel=1e-12)

    def test_lbcast_bytes_match_panel_sizes(self):
        """Total LBCAST traffic equals sends-per-bcast x packed panel size."""
        from repro.simmpi import Fabric, run_spmd

        n, nb, p, q = 24, 4, 2, 3
        cfg = HPLConfig(
            n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC, depth=0,
            bcast=__import__("repro.config", fromlist=["BcastVariant"])
            .BcastVariant.ONE_RING,
        )
        fabric = Fabric(p * q, watchdog=60.0)

        def main(comm):
            grid = ProcessGrid(comm, p, q)
            mat = DistMatrix(grid, n, nb, seed=cfg.seed)
            factorize(mat, cfg)

        run_spmd(p * q, main, fabric=fabric)
        measured = sum(
            s.phases["LBCAST"].bytes_sent
            for s in fabric.stats
            if "LBCAST" in s.phases
        )
        # 1ring with q ranks: q-1 sends per broadcast, p rows broadcasting
        from repro.grid.block_cyclic import num_local_before, numroc

        expected = 0.0
        for k in range(n // nb):
            j1 = (k + 1) * nb
            for row in range(p):
                m2 = numroc(n, nb, row, p) - num_local_before(j1, nb, row, p)
                panel_bytes = 8 * (4 + nb + nb * nb + m2 * nb)
                expected += (q - 1) * panel_bytes
        assert measured == expected

    def test_transfer_bytes_recorded_on_factoring_column(self):
        cfg = HPLConfig(n=16, nb=4, p=2, q=2, schedule=Schedule.CLASSIC, depth=0)
        _, _, all_timers = _factor(cfg)
        total_d2h = sum(t.total("TRANSFER").d2h_bytes for t in all_timers)
        # every panel moves its full local column height down (and back up)
        expected = 0.0
        from repro.grid.block_cyclic import num_local_before, numroc

        for k in range(4):
            for row in range(2):
                rows = numroc(16, 4, row, 2) - num_local_before(k * 4, 4, row, 2)
                expected += 8.0 * rows * 4
        assert total_d2h == expected
        total_h2d = sum(t.total("TRANSFER").h2d_bytes for t in all_timers)
        assert total_h2d == expected


class TestValidation:
    def test_config_matrix_mismatch(self):
        def main(comm):
            grid = ProcessGrid(comm, 1, 1)
            mat = DistMatrix(grid, 16, 4)
            with pytest.raises(ConfigError):
                factorize(mat, HPLConfig(n=16, nb=8, p=1, q=1))

        spmd(1, main)
