"""Panel factorization: all variants, recursion shapes, threading, grids.

Ground truth is reconstruction: applying the recorded pivot swaps to the
original panel must reproduce ``L @ U`` exactly, where ``L1\\U`` is the
replicated triangle ``W`` and ``L2`` the local multipliers.  On top of
that, the factorization must be *identical* (bitwise) across process
counts and thread counts -- every row's update history is the same
arithmetic regardless of who owns it -- and equivalent across variants up
to roundoff.
"""

from __future__ import annotations

import numpy as np
import pytest

import time

from repro.blas.threaded import ParallelContext, TileWorkerPool
from repro.config import HPLConfig, PFactVariant, Schedule
from repro.errors import SingularMatrixError, SpmdError
from repro.grid.block_cyclic import local_indices
from repro.hpl import pfact
from repro.hpl.pfact import _split_sizes, factor_panel

from .conftest import spmd


def _factor_distributed(a_global: np.ndarray, nb: int, p: int, cfg_kwargs: dict):
    """Factor an ``m x jb`` panel distributed over a ``p x 1`` grid.

    Returns ``(w, ipiv, rows)`` where ``rows`` maps each global row to its
    post-factorization content (multipliers / factored rows).
    """
    m, jb = a_global.shape
    cfg = HPLConfig(
        n=max(m, nb), nb=nb, p=p, q=1, schedule=Schedule.CLASSIC,
        **cfg_kwargs,
    )

    def main(comm):
        pos = local_indices(m, nb, comm.rank, p)
        local = np.asfortranarray(a_global[pos, :])
        with TileWorkerPool(cfg.fact_threads) as pool:
            panel = factor_panel(
                comm, local, pos, 0, 0, jb, cfg, pool, comm.rank, p
            )
        return panel.w, panel.ipiv, pos, local

    outs = spmd(p, main)
    w, ipiv = outs[0][0], outs[0][1]
    rows = np.zeros_like(a_global)
    for _, _, pos, local in outs:
        rows[pos, :] = local
    return w, ipiv, rows


def _reconstruct_and_check(a_global: np.ndarray, nb: int, w, ipiv, rows, tol=1e-11):
    """P A == L U with the recorded sequential pivots."""
    m, jb = a_global.shape
    perm = np.arange(m)
    for j, piv in enumerate(ipiv):
        perm[[j, piv]] = perm[[piv, j]]
    pa = a_global[perm, :]
    l1 = np.tril(w, -1) + np.eye(jb)
    u = np.triu(w)
    # positions below the block hold the multipliers (L2) of whatever row
    # ended up there after the swaps, i.e. of pa's rows in position order
    l2 = rows[jb:, :] if m > jb else np.zeros((0, jb))
    lu_top = l1 @ u
    lu_bot = l2 @ u
    assert np.allclose(pa[:jb], lu_top, atol=tol, rtol=tol)
    assert np.allclose(pa[jb:], lu_bot, atol=tol, rtol=tol)
    # the factored triangle must also be stored into the block rows
    assert np.allclose(rows[:jb], w)


@pytest.fixture
def panel(rng):
    return np.asfortranarray(rng.standard_normal((40, 8)))


class TestReconstruction:
    @pytest.mark.parametrize("variant", list(PFactVariant))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_all_variants_all_grids(self, panel, variant, p):
        w, ipiv, rows = _factor_distributed(
            panel, 8, p, dict(pfact=variant, rfact=variant, nbmin=8)
        )
        _reconstruct_and_check(panel, 8, w, ipiv, rows)

    @pytest.mark.parametrize("ndiv,nbmin", [(2, 2), (2, 4), (3, 2), (4, 1), (2, 16)])
    def test_recursion_shapes(self, panel, ndiv, nbmin):
        w, ipiv, rows = _factor_distributed(
            panel, 8, 2, dict(ndiv=ndiv, nbmin=nbmin)
        )
        _reconstruct_and_check(panel, 8, w, ipiv, rows)

    @pytest.mark.parametrize("rfact", list(PFactVariant))
    @pytest.mark.parametrize("pfact", list(PFactVariant))
    def test_variant_matrix_with_recursion(self, panel, pfact, rfact):
        w, ipiv, rows = _factor_distributed(
            panel, 8, 2, dict(pfact=pfact, rfact=rfact, nbmin=2, ndiv=2)
        )
        _reconstruct_and_check(panel, 8, w, ipiv, rows)

    def test_short_panel(self, rng):
        a = np.asfortranarray(rng.standard_normal((8, 8)))
        w, ipiv, rows = _factor_distributed(a, 8, 2, dict(nbmin=4))
        _reconstruct_and_check(a, 8, w, ipiv, rows)

    def test_tall_panel_many_tiles(self, rng):
        a = np.asfortranarray(rng.standard_normal((96, 8)))
        w, ipiv, rows = _factor_distributed(a, 8, 3, dict(nbmin=2))
        _reconstruct_and_check(a, 8, w, ipiv, rows)


class TestInvariance:
    def test_identical_across_process_counts(self, panel):
        results = [
            _factor_distributed(panel, 8, p, dict(nbmin=4)) for p in (1, 2, 4)
        ]
        for w, ipiv, rows in results[1:]:
            assert np.array_equal(w, results[0][0])
            assert np.array_equal(ipiv, results[0][1])
            assert np.array_equal(rows, results[0][2])

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_identical_across_thread_counts(self, panel, threads):
        base = _factor_distributed(panel, 8, 2, dict(nbmin=4))
        multi = _factor_distributed(
            panel, 8, 2, dict(nbmin=4, fact_threads=threads)
        )
        assert np.array_equal(base[0], multi[0])
        assert np.array_equal(base[1], multi[1])
        assert np.array_equal(base[2], multi[2])

    def test_variants_agree_up_to_roundoff(self, panel):
        results = {
            v: _factor_distributed(panel, 8, 2, dict(pfact=v, rfact=v, nbmin=2))
            for v in PFactVariant
        }
        w_right, ipiv_right, _ = results[PFactVariant.RIGHT]
        for v, (w, ipiv, _) in results.items():
            assert np.array_equal(ipiv, ipiv_right), v
            assert np.allclose(w, w_right, atol=1e-12), v

    def test_pivots_match_lapack(self, panel):
        """Same pivot choices as LAPACK's dgetrf on the full panel."""
        import scipy.linalg

        _, ipiv, _ = _factor_distributed(panel, 8, 2, dict(nbmin=2))
        _, lapack_piv = scipy.linalg.lu_factor(panel)
        assert np.array_equal(ipiv, lapack_piv[:8])


class TestEdgeCases:
    def test_singular_panel_raises(self):
        a = np.zeros((16, 4), order="F")
        with pytest.raises(SpmdError) as exc_info:
            _factor_distributed(a, 4, 2, dict())
        assert any(
            isinstance(e, SingularMatrixError)
            for e in exc_info.value.failures.values()
        )

    def test_pivot_already_in_place(self):
        """A dominant diagonal produces the identity pivot sequence."""
        a = np.asfortranarray(np.eye(12, 4) * 100.0 + 0.01)
        _, ipiv, _ = _factor_distributed(a, 4, 2, dict())
        assert np.array_equal(ipiv, np.arange(4))

    def test_rank_without_rows_participates(self, rng):
        """p exceeding the number of row blocks leaves ranks empty-handed;
        they must still join the collectives."""
        a = np.asfortranarray(rng.standard_normal((8, 4)))
        w, ipiv, rows = _factor_distributed(a, 4, 4, dict())
        _reconstruct_and_check(a, 4, w, ipiv, rows)

    def test_width_one_panel(self, rng):
        a = np.asfortranarray(rng.standard_normal((10, 1)))
        w, ipiv, rows = _factor_distributed(a, 1, 2, dict())
        _reconstruct_and_check(a, 1, w, ipiv, rows)


class TestThreadTeam:
    """The FACT thread team meets once per pivot column (one handoff)."""

    def test_rendezvous_count_per_panel(self, rng, monkeypatch):
        """Default recursion (NB = 32, RIGHT, ndiv 2, nbmin 16): one
        handoff per column (32), two per ``_update_cols`` call (one call)
        and one per leaf end (two leaves) -- 36, down from 132 when every
        column crossed four barriers."""
        counts = [0, 0]
        handoff = ParallelContext.handoff

        def counting(self, *args, **kwargs):
            counts[self.tid] += 1
            return handoff(self, *args, **kwargs)

        monkeypatch.setattr(ParallelContext, "handoff", counting)
        a = np.asfortranarray(rng.standard_normal((96, 32)))
        w, ipiv, rows = _factor_distributed(a, 32, 1, dict(fact_threads=2))
        _reconstruct_and_check(a, 32, w, ipiv, rows)
        assert counts == [36, 36]

    def test_singular_panel_raises_on_every_thread(self, monkeypatch):
        """A zero pivot is published by the handoff, so every thread raises
        SingularMatrixError itself; no ParallelAbort unwinds any of them."""
        raised: dict[int, type] = {}
        rfact = pfact._rfact

        def recording(ctx, *args):
            try:
                rfact(ctx, *args)
            except BaseException as exc:
                raised[ctx.tid] = type(exc)
                raise

        monkeypatch.setattr(pfact, "_rfact", recording)
        a = np.zeros((16, 4), order="F")
        with pytest.raises(SpmdError) as exc_info:
            _factor_distributed(a, 4, 1, dict(fact_threads=3))
        assert raised == {tid: SingularMatrixError for tid in range(3)}
        assert [type(e) for e in exc_info.value.failures.values()] == [
            SingularMatrixError
        ]

    def test_other_rank_failure_unwinds_waiting_workers(self, rng):
        """Rank 1 fails while rank 0's tid 0 waits in the pivot all-reduce
        and its workers wait to be released: the fabric abort reaches tid 0,
        which aborts the team, and the job fails with rank 1's error."""
        a = np.asfortranarray(rng.standard_normal((16, 4)))
        cfg = HPLConfig(n=16, nb=4, p=2, q=1,
                        schedule=Schedule.CLASSIC, fact_threads=3)
        pool = TileWorkerPool(3)

        def main(comm):
            if comm.rank == 1:
                time.sleep(0.2)
                raise RuntimeError("rank 1 down")
            pos = local_indices(16, 4, 0, 2)
            local = np.asfortranarray(a[pos, :])
            factor_panel(comm, local, pos, 0, 0, 4, cfg, pool, 0, 2)

        start = time.monotonic()
        try:
            with pytest.raises(SpmdError) as exc_info:
                spmd(2, main)
            assert time.monotonic() - start < 10.0
            failures = exc_info.value.failures
            assert list(failures) == [1]
            assert isinstance(failures[1], RuntimeError)
            assert pool.run(lambda ctx: ctx.reduce(ctx.tid, max)) == 2
        finally:
            pool.shutdown()


class TestSplitSizes:
    @pytest.mark.parametrize("w", range(1, 40))
    @pytest.mark.parametrize("ndiv", [2, 3, 4])
    def test_covers_width(self, w, ndiv):
        sizes = _split_sizes(w, ndiv)
        assert sum(sizes) == w
        assert all(s >= 1 for s in sizes)
        assert len(sizes) <= ndiv
