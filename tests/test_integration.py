"""Cross-layer integration: the numeric engine and the performance
simulator must describe the same algorithm.

The performance figures stand on the analytic ledger; these tests pin the
ledger's work formulas and schedule structure to what the *instrumented
numeric engine actually did* at small sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HPLConfig, Schedule
from repro.grid import ProcessGrid
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix
from repro.perf import PerfConfig, run_sizes
from repro.sched.fastpath import MODE_NAMES

from .conftest import spmd


def _run_numeric(cfg: HPLConfig):
    def main(comm):
        grid = ProcessGrid(comm, cfg.p, cfg.q)
        mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
        result = factorize(mat, cfg)
        return (grid.myrow, grid.mycol), result

    return dict(spmd(cfg.nranks, main))


class TestLedgerAgainstMeasurement:
    @pytest.mark.parametrize(
        "sched", [Schedule.SPLIT_UPDATE, Schedule.LOOKAHEAD, Schedule.CLASSIC]
    )
    def test_update_flops_per_iteration(self, sched):
        """Measured UPDATE flops at the focal rank == the analytic sizes'
        ``sum_sections(jb^2 w + 2 m w jb)`` -- the exact quantities the
        performance model prices."""
        n, nb, p, q = 64, 8, 2, 2
        cfg = HPLConfig(
            n=n, nb=nb, p=p, q=q, schedule=sched,
            depth=0 if sched is Schedule.CLASSIC else 1,
        )
        pcfg = PerfConfig(n=n, nb=nb, p=p, q=q, pl=p, ql=q, schedule=sched)
        by_coords = _run_numeric(cfg)

        sz = run_sizes(pcfg)
        for k in range(cfg.nblocks):
            jb = int(sz.jb[k])
            r_f = ((k + 1) % p) if sz.jb_next[k] else (k % p)
            focal = by_coords[(r_f, sz.c_f[k])]
            measured = 0.0
            for ledger in focal.timers.iters:
                if ledger.k == k and "UPDATE" in ledger.phases:
                    measured = ledger.phases["UPDATE"].flops
            expected = 0.0
            for w in (int(sz.w_la[k]), int(sz.w_left[k]), int(sz.w_right[k])):
                expected += jb * jb * w  # DTRSM on U
                expected += 2.0 * int(sz.m_update[k]) * w * jb  # DGEMM
            assert measured == pytest.approx(expected, rel=1e-12), (sched, k)

    def test_split_mode_sequence_matches_ledger(self):
        """The numeric driver transitions split -> lookahead on exactly the
        iteration the performance ledger predicts, per process column."""
        n, nb, p, q = 96, 8, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q)
        pcfg = PerfConfig(n=n, nb=nb, p=p, q=q, pl=p, ql=q)
        by_coords = _run_numeric(cfg)
        sz = run_sizes(pcfg)
        for k in range(cfg.nblocks):
            r_f = ((k + 1) % p) if sz.jb_next[k] else (k % p)
            numeric_mode = by_coords[(r_f, sz.c_f[k])].modes[k]
            assert numeric_mode == MODE_NAMES[sz.mode[k]], k

    def test_transfer_bytes_match_ledger_m_fact(self):
        """The driver's synthetic D2H bytes equal the ledger's panel-move
        size for the same iteration and rank."""
        n, nb, p, q = 48, 8, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC, depth=0)
        by_coords = _run_numeric(cfg)
        from repro.grid.block_cyclic import num_local_before, numroc

        for k in range(cfg.nblocks):
            pcol = k % q
            jb = min(nb, n - k * nb)
            for row in range(p):
                rank = by_coords[(row, pcol)]
                d2h = 0.0
                for ledger in rank.timers.iters:
                    if ledger.k == k and "TRANSFER" in ledger.phases:
                        d2h = ledger.phases["TRANSFER"].d2h_bytes
                rows = numroc(n, nb, row, p) - num_local_before(k * nb, nb, row, p)
                assert d2h == 8.0 * rows * jb

    def test_fact_flops_concentrated_in_owner_column(self):
        """Only ranks in the factoring column burn FACT flops."""
        cfg = HPLConfig(n=32, nb=8, p=2, q=2, schedule=Schedule.CLASSIC, depth=0)
        by_coords = _run_numeric(cfg)
        for (row, col), result in by_coords.items():
            for ledger in result.timers.iters:
                k = ledger.k
                if k < 0 or "FACT" not in ledger.phases:
                    continue
                if ledger.phases["FACT"].flops > 0:
                    assert col == k % 2


class TestNumericPerfConsistency:
    def test_total_flops_near_hpl_formula(self):
        """Summed DGEMM+DTRSM+FACT flops across ranks come out near
        2/3 n^3 (the duplicated DTRSM and the RHS column add the excess)."""
        cfg = HPLConfig(n=64, nb=8, p=2, q=2, schedule=Schedule.CLASSIC, depth=0)
        by_coords = _run_numeric(cfg)
        total = 0.0
        for result in by_coords.values():
            for label in ("FACT", "UPDATE"):
                total += result.timers.total(label).flops
        lower = 2 / 3 * cfg.n**3
        assert lower < total < 1.35 * lower

    def test_mode_sequences_identical_across_rows(self):
        """Within a process column every row sees the same split point."""
        cfg = HPLConfig(n=64, nb=8, p=3, q=2)
        by_coords = _run_numeric(cfg)
        for col in range(2):
            seqs = {tuple(by_coords[(r, col)].modes) for r in range(3)}
            assert len(seqs) == 1
