"""The factorization driver: all schedules, equivalence, and ledgers."""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import HPLConfig, PFactVariant, Schedule
from repro.errors import ConfigError
from repro.grid import ProcessGrid
from repro.hpl.backsolve import backsolve
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix, generate_global
from repro.sched.engine import TimelineResult
from repro.sched.timeline import Step, build_run
from repro.sched.trace import to_chrome_trace

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
        """Split factors bit for bit as look-ahead does.  One exception:
        at ``frac=0`` one process column's right section holds only the
        RHS column, and BLAS solves and multiplies a single column with
        its vector kernels, so that column's last bits differ from
        look-ahead's, which updates it inside a wider section."""
        cfg = HPLConfig(n=40, nb=8, p=2, q=2, split_fraction=frac)
        full, ipiv, _ = _factor(cfg)
        ref_cfg = cfg.replace(schedule=Schedule.LOOKAHEAD)
        ref_full, ref_ipiv, _ = _factor(ref_cfg)
        assert all(np.array_equal(a, b) for a, b in zip(ipiv, ref_ipiv))
        n = cfg.n
        assert np.array_equal(full[:, :n], ref_full[:, :n])
        if frac == 0.0:
            assert np.allclose(full[:, n], ref_full[:, n], atol=1e-12)
        else:
            assert np.array_equal(full[:, n], ref_full[:, n])

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
        pfact=variant, rfact=variant, nbmin=4, fact_threads=threads,
    )


@functools.lru_cache(maxsize=None)
def _single_thread_factor(sched: Schedule, variant: PFactVariant):
    full, ipiv, _ = _factor(_threads_cfg(sched, variant, 1))
    return full, ipiv


def _digest_cfg(sched: Schedule, variant: PFactVariant, threads: int) -> HPLConfig:
    return HPLConfig(
        n=128, nb=32, p=2, q=2, schedule=sched,
        pfact=variant, rfact=variant, fact_threads=threads, seed=7,
    )


def _random_order(seed: int):
    """``build_run``, returning its list in a random linear extension that
    respects every dependency and each resource's submission (FIFO) order.
    The order depends only on the seed and the list's shape, so every rank
    of a process column draws the same interleaving."""

    def build(costs):
        tasks = build_run(costs)
        index = {id(t): i for i, t in enumerate(tasks)}
        last_on: dict[str, int] = {}
        waits = []
        for i, task in enumerate(tasks):
            before = {index[id(d)] for d in task.deps}
            if task.resource in last_on:
                before.add(last_on[task.resource])
            last_on[task.resource] = i
            waits.append(before)
        rng = random.Random(seed)
        order: list[int] = []
        todo = list(range(len(tasks)))
        while todo:
            i = rng.choice([j for j in todo if waits[j] <= set(order)])
            todo.remove(i)
            order.append(i)
        return [tasks[i] for i in order]

    return build


def _run(cfg: HPLConfig):
    """Factor and back-solve on the SPMD runtime.

    Returns ``(x, concatenated pivots, factored global matrix, messages,
    bytes)``, the factorization's traffic summed over every rank.
    """

    def main(comm):
        grid = ProcessGrid(comm, cfg.p, cfg.q)
        mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
        result = factorize(mat, cfg)
        traffic = comm.stats.total
        full = mat.gather_global()
        return backsolve(mat), np.concatenate(result.ipiv), full, traffic

    outs = spmd(cfg.nranks, main)
    x, ipiv, full, _ = outs[0]
    totals = [o[3] for o in outs]
    return (x, ipiv, full, sum(t.msgs_sent for t in totals),
            sum(t.bytes_sent for t in totals))


#: List-order runs, shared by the digest grid and the order property.
_solve = functools.lru_cache(maxsize=None)(_run)


#: Messages and bytes of one factorization per schedule on the digest grid
#: (n=128, nb=32, 2x2, seed 7); every pfact variant and FACT thread count
#: sends the same.  Integers, so the same on any BLAS build.  Split
#: sends look-ahead's count: where its left section is empty it swaps the
#: look-ahead and remaining columns as two sections, as look-ahead does.
DIGEST_TRAFFIC = {
    Schedule.CLASSIC: (300, 285496),
    Schedule.LOOKAHEAD: (324, 285496),
    Schedule.SPLIT_UPDATE: (324, 285496),
}

#: The digest grid's pivot sequence: every schedule, variant and thread
#: count picks the same rows.
DIGEST_PIVOTS = [
    41, 79, 120, 82, 27, 113, 10, 127, 115, 30, 39, 98, 109, 119, 46, 35,
    76, 40, 94, 104, 31, 110, 84, 54, 30, 38, 125, 91, 103, 47, 44, 102,
    111, 49, 114, 109, 120, 82, 77, 80, 111, 120, 107, 105, 124, 56, 123, 72,
    109, 104, 72, 104, 85, 75, 75, 99, 75, 109, 109, 72, 107, 63, 116, 116,
    72, 77, 120, 102, 110, 104, 72, 78, 99, 86, 85, 87, 121, 105, 114, 115,
    114, 107, 121, 121, 95, 122, 113, 111, 113, 111, 92, 102, 96, 123, 98, 99,
    121, 123, 115, 107, 105, 107, 107, 114, 109, 113, 123, 112, 108, 119, 124, 116,
    125, 120, 123, 126, 121, 123, 123, 121, 126, 122, 125, 123, 126, 127, 127, 127,
]


class TestDigest:
    """Every schedule x pfact (= rfact) variant x FACT thread count."""

    @pytest.mark.parametrize(
        "sched,variant,threads",
        list(itertools.product(Schedule, PFactVariant, (1, 2, 3))),
    )
    def test_traffic_and_pivots_are_pinned(self, sched, variant, threads):
        x, ipiv, _, msgs, nbytes = _solve(_digest_cfg(sched, variant, threads))
        assert (msgs, nbytes) == DIGEST_TRAFFIC[sched]
        assert ipiv.tolist() == DIGEST_PIVOTS
        if sched is Schedule.SPLIT_UPDATE:
            ref = _solve(_digest_cfg(Schedule.LOOKAHEAD, variant, threads))
            assert np.array_equal(x, ref[0])


class TestTaskOrder:
    """``factorize`` executes ``build_run``'s task DAG, the simulator's."""

    @given(
        sched=st.sampled_from(list(Schedule)),
        variant=st.sampled_from(list(PFactVariant)),
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_dag_order_gives_the_same_bits(self, sched, variant, threads, seed):
        """Any order the DES's edges and FIFO resources allow computes the
        list order's bits; a failure means ``build_run`` lacks an edge the
        numbers need (an overlap the algorithm cannot perform)."""
        cfg = _digest_cfg(sched, variant, threads)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.hpl.driver.build_run", _random_order(seed))
            x, ipiv, full, _, _ = _run(cfg)
        ref_x, ref_ipiv, ref_full, _, _ = _solve(cfg)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(ipiv, ref_ipiv)
        assert np.array_equal(full, ref_full)

    def test_numeric_run_opens_in_the_trace_viewer(self):
        """The executed list is a timeline: one span per task that did
        work on the rank, under the name the simulator gives it."""
        cfg = _digest_cfg(Schedule.SPLIT_UPDATE, PFactVariant.RIGHT, 1)

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            return factorize(mat, cfg).tasks

        tasks = spmd(cfg.nranks, main)[1]  # grid column 1: split, then fallback
        makespan = max(t.end for t in tasks)
        doc = to_chrome_trace(TimelineResult(tasks, makespan, {}))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        worked = [t.name for t in tasks if t.duration > 0]
        assert [e["name"] for e in spans] == worked
        assert {"rs2.gather0.0", "rs.comm.la.0", "rs1.comm.0", "fact.0",
                "rs2.scatter.1", "dgemm.rest.3", "lbcast.-1"} <= set(worked)
        assert "fact.-1" not in worked  # column 0 factors panel 0
        starts = [e["ts"] for e in spans]
        assert starts == sorted(starts) and starts[0] >= 0
        assert all(e["ts"] + e["dur"] <= makespan * 1e6 + 1e-6 for e in spans)


class TestTaskCpu:
    def test_each_step_carries_its_thread_cpu(self):
        """A task that ran a step is stamped with the rank thread's CPU
        seconds inside it: none below zero, none above its wall span (the
        rest is waiting).  A task with no step burned nothing."""
        cfg = HPLConfig(n=128, nb=32, p=2, q=2, fact_threads=2)
        ran: dict[int, bool] = {}

        def build(costs):
            tasks = build_run(costs)
            ran.update((id(t), isinstance(t.duration, Step)) for t in tasks)
            return tasks

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            return factorize(mat, cfg).tasks

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.hpl.driver.build_run", build)
            ranks = spmd(cfg.nranks, main)
        for tasks in ranks:
            steps = [t for t in tasks if ran[id(t)]]
            assert steps and all(0 <= t.cpu <= t.duration + 1e-3 for t in steps)
            assert all(t.cpu == 0.0 for t in tasks if not ran[id(t)])
            assert sum(t.cpu for t in steps) > 0
        spans = to_chrome_trace(TimelineResult(ranks[0], 1.0, {}))["traceEvents"]
        cpu = {t.name: t.cpu for t in ranks[0]}
        assert all(e["args"]["cpu"] == cpu[e["name"]]
                   for e in spans if e["ph"] == "X")


class TestLedgers:
    def test_phase_flops_match_closed_forms(self):
        """Measured per-phase flop totals equal the analytic formulas the
        performance ledger is built on."""
        n, nb, p, q = 32, 4, 2, 2
        cfg = HPLConfig(n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC)
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
            n=n, nb=nb, p=p, q=q, schedule=Schedule.CLASSIC, 
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
        cfg = HPLConfig(n=16, nb=4, p=2, q=2, schedule=Schedule.CLASSIC)
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
