"""The tiled worker pool: round-robin ownership, the handoff, aborts."""

from __future__ import annotations

import random
import sys
import time

import numpy as np
import pytest

from repro.blas.threaded import ParallelContext, TileWorkerPool, tile_slices


class TestTileSlices:
    def test_round_robin_assignment(self):
        """Paper Fig. 4: tile t belongs to thread t % T; thread 0 gets the
        first tile (which holds the triangle and pivot source rows)."""
        slices = {t: tile_slices(100, 10, t, 4) for t in range(4)}
        assert slices[0][0] == slice(0, 10)
        assert slices[1][0] == slice(10, 20)
        assert slices[0] == [slice(0, 10), slice(40, 50), slice(80, 90)]
        assert slices[3] == [slice(30, 40), slice(70, 80)]

    def test_partition_covers_all_rows(self):
        for nrows in [0, 1, 9, 10, 95, 101]:
            for nthreads in [1, 2, 3, 7]:
                rows = []
                for t in range(nthreads):
                    for sl in tile_slices(nrows, 10, t, nthreads):
                        rows.extend(range(sl.start, sl.stop))
                assert sorted(rows) == list(range(nrows))

    def test_short_final_tile(self):
        assert tile_slices(25, 10, 2, 3) == [slice(20, 25)]

    def test_validation(self):
        with pytest.raises(ValueError):
            tile_slices(10, 0, 0, 1)
        with pytest.raises(ValueError):
            tile_slices(10, 5, 3, 2)


class TestPool:
    def test_all_threads_run(self):
        with TileWorkerPool(4) as pool:
            seen = [False] * 4

            def region(ctx):
                seen[ctx.tid] = True

            pool.run(region)
        assert all(seen)

    def test_single_thread_runs_inline(self):
        pool = TileWorkerPool(1)
        assert pool.run(lambda ctx: ctx.tid) == 0
        pool.shutdown()

    def test_reduce_deterministic_maxloc(self):
        with TileWorkerPool(5) as pool:
            vals = [3.0, 9.0, 1.0, 9.0, 2.0]
            results = [None] * 5

            def region(ctx):
                got = ctx.reduce(
                    (vals[ctx.tid], ctx.tid),
                    lambda a, b: a if (a[0], -a[1]) >= (b[0], -b[1]) else b,
                )
                results[ctx.tid] = got

            pool.run(region)
        assert results == [(9.0, 1)] * 5  # ties break to the lower tid

    def test_bcast_from_nonzero_root(self):
        with TileWorkerPool(3) as pool:
            results = [None] * 3

            def region(ctx):
                value = "payload" if ctx.tid == 2 else None
                results[ctx.tid] = ctx.bcast(value, root=2)

            pool.run(region)
        assert results == ["payload"] * 3

    def test_barrier_ordering(self):
        """Writes before a barrier are visible after it."""
        with TileWorkerPool(4) as pool:
            data = np.zeros(4)
            ok = [False] * 4

            def region(ctx):
                data[ctx.tid] = ctx.tid + 1
                ctx.barrier()
                ok[ctx.tid] = data.sum() == 10

            pool.run(region)
        assert all(ok)

    def test_pool_reusable_across_regions(self):
        with TileWorkerPool(3) as pool:
            total = []
            for i in range(5):
                acc = np.zeros(3)

                def region(ctx, acc=acc, i=i):
                    acc[ctx.tid] = i

                pool.run(region)
                total.append(acc.sum())
        assert total == [0.0, 3.0, 6.0, 9.0, 12.0]

    def test_exception_propagates_from_worker(self):
        with TileWorkerPool(3) as pool:
            def region(ctx):
                if ctx.tid == 1:
                    raise RuntimeError("worker boom")
                ctx.barrier()  # would hang without barrier abort

            with pytest.raises(RuntimeError, match="worker boom"):
                pool.run(region)
            # pool still usable afterwards
            assert pool.run(lambda ctx: "ok") == "ok"

    def test_exception_propagates_from_main(self):
        with TileWorkerPool(2) as pool:
            def region(ctx):
                if ctx.tid == 0:
                    raise ValueError("main boom")
                ctx.barrier()

            with pytest.raises(ValueError, match="main boom"):
                pool.run(region)

    def test_returns_main_thread_result(self):
        with TileWorkerPool(2) as pool:
            assert pool.run(lambda ctx: ctx.tid * 10 + 7) == 7

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            TileWorkerPool(0)

    def test_shutdown_idempotent(self):
        pool = TileWorkerPool(2)
        pool.run(lambda ctx: None)
        pool.shutdown()
        pool.shutdown()

    def test_parallel_tile_sum(self):
        """Threads cooperatively process disjoint tiles of shared data."""
        with TileWorkerPool(3) as pool:
            data = np.arange(50.0)
            partial = np.zeros(3)

            def region(ctx):
                acc = 0.0
                for sl in ctx.tile_slices(50, 8):
                    acc += data[sl].sum()
                partial[ctx.tid] = acc

            pool.run(region)
        assert partial.sum() == data.sum()


class TestHandoff:
    @pytest.mark.parametrize("nthreads", [2, 3, 5])
    def test_interleaved_rounds_deliver_every_value_in_order(self, nthreads):
        """Bcast (any root), reduce, bare handoffs and barriers interleaved
        over 2 000 rounds, more threads than cores and a short switch
        interval: every thread sees every round's value.  A cell written
        before every worker has read the previous one loses values here."""
        rounds = 2000
        ops = random.Random(nthreads).choices(
            ["bcast", "reduce", "handoff", "barrier"], k=rounds
        )
        stamp = [-1] * nthreads
        seen: list[list] = [[] for _ in range(nthreads)]

        def expected(r, op):
            if op == "bcast":
                return ("b", r, r % nthreads)
            if op == "reduce":
                return r * nthreads + sum(range(nthreads))
            if op == "handoff":
                return ("h", r, tuple(range(nthreads)))
            return ("barrier", r)

        def region(ctx):
            tid = ctx.tid
            for r, op in enumerate(ops):
                if op == "bcast":
                    root = r % nthreads
                    got = ctx.bcast(("b", r, tid) if tid == root else None, root=root)
                elif op == "reduce":
                    got = ctx.reduce(r + tid, lambda x, y: x + y)
                elif op == "handoff":
                    got = ctx.handoff(tid, lambda slots, r=r: ("h", r, tuple(slots)))
                else:
                    stamp[tid] = r
                    ctx.barrier()
                    got = ("barrier", r) if min(stamp) >= r else ("early", r)
                seen[tid].append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often mid-handoff
        try:
            with TileWorkerPool(nthreads) as pool:
                pool.run(region)
        finally:
            sys.setswitchinterval(interval)
        want = [expected(r, op) for r, op in enumerate(ops)]
        for tid in range(nthreads):
            assert seen[tid] == want, tid

    def test_master_sees_slots_in_tid_order(self):
        with TileWorkerPool(4) as pool:
            results = [None] * 4

            def region(ctx):
                results[ctx.tid] = ctx.handoff(ctx.tid * 10, lambda s: list(s))

            pool.run(region)
        assert results == [[0, 10, 20, 30]] * 4

    def test_single_thread_runs_master_inline(self):
        pool = TileWorkerPool(1)
        assert pool.run(lambda ctx: ctx.handoff(3, lambda s: s[0] + 1)) == 4


class TestAbort:
    """Each failure must surface as the original exception, promptly, and
    leave the pool able to run a fresh region."""

    @staticmethod
    def _fresh_region_runs(pool):
        seen = [False] * pool.nthreads

        def region(ctx):
            seen[ctx.tid] = True
            return ctx.reduce(ctx.tid, lambda x, y: x + y)

        assert pool.run(region) == sum(range(pool.nthreads))
        assert all(seen)

    def test_worker_raises_while_others_wait_in_the_gather(self):
        with TileWorkerPool(3) as pool:
            def region(ctx):
                ctx.barrier()
                if ctx.tid == 2:
                    time.sleep(0.05)  # tid 1 has arrived; tid 0 is gathering
                    raise RuntimeError("worker boom")
                ctx.handoff(ctx.tid)

            start = time.monotonic()
            with pytest.raises(RuntimeError, match="worker boom"):
                pool.run(region)
            assert time.monotonic() - start < 5.0
            self._fresh_region_runs(pool)

    def test_master_raises_between_gather_and_release(self):
        with TileWorkerPool(3) as pool:
            def master(slots):
                raise ValueError("master boom")

            passed = []

            def region(ctx):
                ctx.handoff(ctx.tid, master)
                passed.append(ctx.tid)  # nothing was published: unreachable

            start = time.monotonic()
            with pytest.raises(ValueError, match="master boom"):
                pool.run(region)
            assert time.monotonic() - start < 5.0
            assert passed == []
            self._fresh_region_runs(pool)

    def test_worker_raises_after_its_last_handoff(self):
        with TileWorkerPool(3) as pool:
            def region(ctx):
                ctx.barrier()
                if ctx.tid == 1:
                    raise KeyError("late")

            with pytest.raises(KeyError, match="late"):
                pool.run(region)
            self._fresh_region_runs(pool)

    def test_first_error_in_tid_order_wins(self):
        with TileWorkerPool(3) as pool:
            def region(ctx):
                raise RuntimeError(f"tid {ctx.tid}")

            with pytest.raises(RuntimeError, match="tid 0"):
                pool.run(region)
            self._fresh_region_runs(pool)

    def test_shutdown_then_run_starts_a_fresh_team(self):
        pool = TileWorkerPool(3)
        self._fresh_region_runs(pool)
        pool.shutdown()
        self._fresh_region_runs(pool)
        pool.shutdown()
