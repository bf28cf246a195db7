"""Distributed backsolve, residual verification, and the run_hpl API."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import HPLConfig, Schedule
from repro.errors import VerificationError
from repro.grid import ProcessGrid
from repro.hpl.api import run_hpl
from repro.hpl.backsolve import backsolve
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix, generate_global
from repro.hpl.verify import THRESHOLD, _regenerate_local, verify

from .conftest import reference_solution, spmd


class TestBacksolve:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 2), (2, 3), (1, 4), (4, 1)])
    @pytest.mark.parametrize("n,nb", [(24, 4), (20, 8), (13, 3)])
    def test_solution_on_every_rank(self, p, q, n, nb):
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q)
        x_ref = reference_solution(n, cfg.seed)

        def main(comm):
            grid = ProcessGrid(comm, p, q)
            mat = DistMatrix(grid, n, nb, seed=cfg.seed)
            factorize(mat, cfg)
            return backsolve(mat)

        for x in spmd(p * q, main):
            assert np.allclose(x, x_ref, atol=1e-9)

    def test_backsolve_does_not_mutate_matrix(self):
        cfg = HPLConfig(n=16, nb=4, p=2, q=2)

        def main(comm):
            grid = ProcessGrid(comm, 2, 2)
            mat = DistMatrix(grid, 16, 4, seed=cfg.seed)
            factorize(mat, cfg)
            before = mat.a.copy()
            backsolve(mat)
            return np.array_equal(mat.a, before)

        assert all(spmd(4, main))


class TestVerify:
    def test_correct_solution_passes(self):
        n, nb = 24, 4
        cfg = HPLConfig(n=n, nb=nb, p=2, q=2)
        x_ref = reference_solution(n, cfg.seed)

        def main(comm):
            grid = ProcessGrid(comm, 2, 2)
            mat = DistMatrix(grid, n, nb, seed=cfg.seed)
            return verify(mat, x_ref)

        for check in spmd(4, main):
            assert check.passed and check.resid < 1.0
            assert check.norm_a > 0 and check.norm_b > 0 and check.norm_x > 0

    def test_wrong_solution_fails(self):
        n, nb = 16, 4
        cfg = HPLConfig(n=n, nb=nb, p=2, q=2)
        x_bad = reference_solution(n, cfg.seed) + 0.5

        def main(comm):
            grid = ProcessGrid(comm, 2, 2)
            mat = DistMatrix(grid, n, nb, seed=cfg.seed)
            return verify(mat, x_bad)

        for check in spmd(4, main):
            assert not check.passed and check.resid > THRESHOLD

    def test_verification_identical_on_all_ranks(self):
        n = 20
        cfg = HPLConfig(n=n, nb=5, p=2, q=2)
        x_ref = reference_solution(n, cfg.seed)

        def main(comm):
            grid = ProcessGrid(comm, 2, 2)
            mat = DistMatrix(grid, n, 5, seed=cfg.seed)
            return verify(mat, x_ref)

        checks = spmd(4, main)
        assert len({c.resid for c in checks}) == 1


class TestRegeneration:
    def test_verify_regenerates_what_was_generated(self):
        """verify's regenerated ``[A | b]`` rows are, bit for bit, what
        DistMatrix built before factorize overwrote it -- on a 3x2 grid
        whose third process row owns no rows (n=5, nb=4)."""
        cfg = HPLConfig(n=5, nb=4, p=3, q=2)
        _, b_ref = generate_global(cfg.n, cfg.seed)

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            before = mat.a.copy()
            factorize(mat, cfg)
            return before, mat.a, mat.row_pos, mat.col_pos, \
                _regenerate_local(mat)

        out = spmd(cfg.p * cfg.q, main)
        assert any(before.size == 0 for before, *_ in out)
        for before, after, rows, cols, aug in out:
            ncols = int(np.searchsorted(cols, cfg.n))
            assert aug.shape == (len(rows), ncols + 1)
            assert np.array_equal(aug[:, :ncols], before[:, :ncols])
            if ncols < len(cols):  # this rank owns the RHS column
                assert np.array_equal(aug[:, -1], before[:, -1])
            assert np.array_equal(aug[:, -1], b_ref[rows])
            if after.size:
                assert not np.array_equal(after, before)

    def test_generation_peak_memory(self):
        """A 1x1 ``DistMatrix(n=2048, nb=128)`` peaks at <= 1.25x the
        matrix bytes: the generator fills one block of columns per pass
        (a whole-matrix uint64 pass would be ~4x)."""
        def main(comm):
            grid = ProcessGrid(comm, 1, 1)
            tracemalloc.start()
            try:
                mat = DistMatrix(grid, 2048, 128)
                return tracemalloc.get_traced_memory()[1], mat.a.nbytes
            finally:
                tracemalloc.stop()

        peak, nbytes = spmd(1, main)[0]
        assert peak <= 1.25 * nbytes, (peak, nbytes)


class TestRunHpl:
    @pytest.mark.parametrize(
        "sched", [Schedule.CLASSIC, Schedule.LOOKAHEAD, Schedule.SPLIT_UPDATE]
    )
    def test_end_to_end(self, sched):
        cfg = HPLConfig(
            n=32, nb=8, p=2, q=2, schedule=sched,
            depth=0 if sched is Schedule.CLASSIC else 1,
        )
        result = run_hpl(cfg)
        assert result.passed
        assert np.allclose(result.x, reference_solution(32, cfg.seed), atol=1e-9)
        assert result.wall_seconds > 0
        assert len(result.timers) == 4
        assert len(result.comm_stats) == 4

    def test_no_check_mode(self):
        result = run_hpl(HPLConfig(n=16, nb=4, p=1, q=2, check=False))
        assert result.passed and np.isnan(result.resid)

    def test_raise_on_failure_passes_through_good_runs(self):
        result = run_hpl(HPLConfig(n=16, nb=4, p=2, q=1), raise_on_failure=True)
        assert result.passed

    def test_timers_populated(self):
        result = run_hpl(HPLConfig(n=24, nb=4, p=2, q=2))
        timers = result.timers[0]
        assert len(timers.iters) >= 6
        assert timers.total("UPDATE").flops > 0
        labels = set()
        for ledger in timers.iters:
            labels |= set(ledger.phases)
        assert {"FACT", "LBCAST", "RS", "UPDATE"} <= labels

    def test_comm_stats_phases(self):
        result = run_hpl(HPLConfig(n=24, nb=4, p=2, q=2))
        all_phases = set()
        for stats in result.comm_stats:
            all_phases |= set(stats.phases)
        assert {"FACT", "LBCAST", "RS"} <= all_phases

    def test_single_rank_run(self):
        result = run_hpl(HPLConfig(n=20, nb=4, p=1, q=1, fact_threads=2))
        assert result.passed
