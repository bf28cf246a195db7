"""``Timers``: a read-only view over one rank's executed tasks."""

from __future__ import annotations

import pytest

from repro.blas.kernels import FLOPS
from repro.config import HPLConfig, Schedule
from repro.grid import ProcessGrid
from repro.hpl.api import run_hpl
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix
from repro.hpl.timers import PhaseRecord, Timers
from repro.perf.measured import measured_breakdown

from .conftest import spmd

#: One rank, classic: panel k's trailing update covers every column right
#: of it, RHS column included, and every row below it.
_CFG = HPLConfig(n=40, nb=8, p=1, q=1, schedule=Schedule.CLASSIC)


@pytest.fixture(scope="module")
def one_rank():
    """A 1x1 classic factorization and the flops its rank thread counted
    across the call."""

    def main(comm):
        mat = DistMatrix(ProcessGrid(comm, 1, 1), _CFG.n, _CFG.nb, seed=_CFG.seed)
        FLOPS.take()
        result = factorize(mat, _CFG)
        return result, FLOPS.take()

    [(result, counted)] = spmd(1, main)
    return result, counted


def _panels():
    n, nb = _CFG.n, _CFG.nb
    return [(k, k * nb, min(nb, n - k * nb)) for k in range(_CFG.nblocks)]


class TestTimers:
    def test_phase_captures_flops(self, one_rank):
        """UPDATE's total is the trailing updates' DTRSM + DGEMM flops."""
        result, _ = one_rank
        n = _CFG.n
        want = 0.0
        for _, j0, jb in _panels():
            m, w = n - j0 - jb, n + 1 - j0 - jb
            want += jb * jb * w + 2.0 * m * w * jb
        assert result.timers.total("UPDATE").flops == want
        assert result.timers.total("FACT").flops > 0

    def test_phase_captures_wall_time(self, one_rank):
        """A label's seconds are its tasks' wall spans, and FACT has some."""
        result, _ = one_rank
        fact = [t for t in result.timers if t.phase == "FACT"]
        assert all(0.0 <= t.start <= t.end for t in fact)
        assert result.timers.total("FACT").seconds == sum(t.end - t.start for t in fact)
        assert result.timers.total("FACT").seconds > 0

    def test_nested_phases_attribute_inner_flops_inward_only(self, one_rank):
        """Every flop the rank counted during the run lands in exactly one
        task: the labels' totals add up to the counter, none twice."""
        result, counted = one_rank
        labels = {t.phase for t in result.timers}
        assert sum(result.timers.total(lb).flops for lb in labels) == counted
        assert counted > 0

    def test_repeated_phase_accumulates(self, one_rank):
        """An iteration runs UPDATE as two tasks (DTRSM, DGEMM); its row of
        the breakdown and the run's total both add them."""
        result, _ = one_rank
        rows = measured_breakdown([result.timers])
        for k, _, _ in _panels():
            update = [t for t in result.timers if t.tag == k and t.phase == "UPDATE"]
            assert len(update) == 2
            assert rows[k].flops["UPDATE"] == sum(t.flops for t in update)
            assert rows[k].k == k

    def test_transfer_recording(self, one_rank):
        """TRANSFER carries each panel's ``8 rows jb`` bytes once each way,
        and no flops."""
        result, _ = one_rank
        want = sum(8.0 * (_CFG.n - j0) * jb for _, j0, jb in _panels())
        total = result.timers.total("TRANSFER")
        assert (total.d2h_bytes, total.h2d_bytes, total.flops) == (want, want, 0)

    def test_total_aggregates_over_iterations(self, one_rank):
        """The run's total is the sum of the per-iteration rows."""
        result, _ = one_rank
        rows = measured_breakdown([result.timers])
        assert len(rows) == _CFG.nblocks
        for label in ("FACT", "UPDATE"):
            assert result.timers.total(label).flops == sum(
                r.flops.get(label, 0.0) for r in rows
            )
        assert result.timers.total("MISSING") == PhaseRecord()

    def test_a_task_that_ran_no_step_records_nothing(self):
        """On a 2x2 classic run the ranks off panel k's column run no FACT
        or transfer step; those tasks keep zero span, cpu, flops and bytes."""
        cfg = HPLConfig(n=48, nb=8, p=2, q=2, schedule=Schedule.CLASSIC)

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            return grid.mycol, factorize(mat, cfg)

        idle = [t for col, result in spmd(cfg.nranks, main) for t in result.tasks
                if t.name.startswith(("d2h.", "fact.", "h2d.")) and col != t.tag % cfg.q]
        assert idle
        for t in idle:
            assert (t.end - t.start, t.cpu, t.flops, t.nbytes) == (0, 0, 0, 0), t.name

    def test_view_is_read_only_over_its_tasks(self, one_rank):
        """``Timers`` iterates the very task list it was given."""
        result, _ = one_rank
        view = Timers(result.tasks)
        assert list(view) == result.tasks
        assert view.total("UPDATE") == result.timers.total("UPDATE")


def test_total_is_the_sum_over_the_ranks_tasks():
    """On a 2x2 run, every rank's ``total(label)`` is its tasks' seconds,
    flops and d2h / h2d bytes summed under that label; a label no task
    carries totals zero."""
    result = run_hpl(HPLConfig(n=48, nb=8, p=2, q=2))
    for timers in result.timers:
        sums: dict[str, list[float]] = {}
        for t in timers:
            row = sums.setdefault(t.phase, [0.0, 0.0, 0.0, 0.0])
            row[0] += t.duration
            row[1] += t.flops
            row[2 if t.name.startswith("d2h.") else 3] += t.nbytes
        assert {"FACT", "LBCAST", "RS", "UPDATE", "TRANSFER"} <= set(sums)
        for label, (seconds, flops, d2h, h2d) in sums.items():
            total = timers.total(label)
            assert (total.seconds, total.flops, total.d2h_bytes,
                    total.h2d_bytes) == (seconds, flops, d2h, h2d), label
        assert timers.total("MISSING") == PhaseRecord()
