"""Property tests for the 2D block-cyclic index arithmetic.

These laws are the foundation both the solver and the performance ledger
stand on; hypothesis sweeps them broadly.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import Schedule
from repro.grid.block_cyclic import (
    MODE_NAMES,
    global_to_local,
    local_indices,
    local_to_global,
    num_local_before,
    num_local_before_array,
    numroc,
    numroc_array,
    owning_process,
    section_extents,
)

dims = st.integers(0, 500)
blocks = st.integers(1, 17)
procs = st.integers(1, 7)


class TestPartitionLaws:
    @given(dims, blocks, procs)
    def test_numroc_partitions_n(self, n, nb, nprocs):
        assert sum(numroc(n, nb, ip, nprocs) for ip in range(nprocs)) == n

    @given(dims, blocks, procs)
    def test_local_indices_partition_range(self, n, nb, nprocs):
        pieces = [local_indices(n, nb, ip, nprocs) for ip in range(nprocs)]
        allidx = np.concatenate(pieces) if pieces else np.empty(0)
        assert sorted(allidx.tolist()) == list(range(n))

    @given(dims, blocks, procs)
    def test_local_indices_ascending_and_owned(self, n, nb, nprocs):
        for ip in range(nprocs):
            idx = local_indices(n, nb, ip, nprocs)
            assert np.all(np.diff(idx) > 0)
            for g in idx[:50]:
                assert owning_process(int(g), nb, nprocs) == ip

    @given(dims, blocks, procs)
    def test_numroc_is_balanced(self, n, nb, nprocs):
        """No process holds more than one block above any other."""
        counts = [numroc(n, nb, ip, nprocs) for ip in range(nprocs)]
        assert max(counts) - min(counts) <= nb


class TestRoundTrips:
    @given(st.integers(0, 10_000), blocks, procs)
    def test_global_local_global(self, g, nb, nprocs):
        ip, loc = global_to_local(g, nb, nprocs)
        assert owning_process(g, nb, nprocs) == ip
        assert local_to_global(loc, nb, ip, nprocs) == g

    @given(st.integers(0, 5_000), blocks, procs, st.integers(0, 6))
    def test_local_global_local(self, loc, nb, nprocs, ip_raw):
        ip = ip_raw % nprocs
        g = local_to_global(loc, nb, ip, nprocs)
        assert global_to_local(g, nb, nprocs) == (ip, loc)

    @given(st.integers(0, 3_000), blocks, procs)
    def test_num_local_before_counts(self, g, nb, nprocs):
        """num_local_before == brute-force count of owned indices < g."""
        for ip in range(nprocs):
            expected = sum(
                1 for x in range(g) if owning_process(x, nb, nprocs) == ip
            ) if g <= 200 else None
            got = num_local_before(g, nb, ip, nprocs)
            if expected is not None:
                assert got == expected
            assert got == numroc(g, nb, ip, nprocs)

    @given(dims, blocks, procs)
    def test_num_local_before_monotone(self, n, nb, nprocs):
        for ip in range(nprocs):
            prev = 0
            for g in range(0, n, max(1, n // 20) or 1):
                cur = num_local_before(g, nb, ip, nprocs)
                assert cur >= prev
                prev = cur


@st.composite
def array_cases(draw):
    """``(g, nb, iproc, nprocs)`` with ``g`` and ``iproc`` each a scalar or
    an equal-length list (empty included)."""
    nprocs = draw(st.integers(1, 40))
    length = draw(st.integers(0, 12))
    g_vals, ip_vals = st.integers(0, 3_000), st.integers(0, nprocs - 1)
    g = draw(g_vals | st.lists(g_vals, min_size=length, max_size=length))
    iproc = draw(ip_vals | st.lists(ip_vals, min_size=length, max_size=length))
    return g, draw(blocks), iproc, nprocs


class TestArrayTwins:
    """The vectorized helpers the ledger prices through are the scalar
    helpers applied elementwise."""

    @given(array_cases())
    def test_match_scalars_elementwise(self, case):
        g, nb, iproc, nprocs = case
        gs, ips = np.broadcast_arrays(np.asarray(g, dtype=np.int64),
                                      np.asarray(iproc, dtype=np.int64))
        for array_fn, scalar_fn in ((num_local_before_array, num_local_before),
                                    (numroc_array, numroc)):
            got = np.asarray(array_fn(g, nb, iproc, nprocs))
            assert got.dtype == np.int64
            assert got.shape == gs.shape
            assert got.ravel().tolist() == [
                scalar_fn(int(a), nb, int(b), nprocs)
                for a, b in zip(gs.ravel(), ips.ravel())
            ]

    @given(st.integers(1, 40), blocks, st.integers(1, 100), st.booleans())
    def test_reject_what_scalars_reject(self, nprocs, nb, bad, as_array):
        wrap = (lambda v: [0, v]) if as_array else (lambda v: v)
        with pytest.raises(ValueError, match="global indices must be >= 0"):
            num_local_before_array(wrap(-bad), nb, 0, nprocs)
        outside = re.escape(f"iproc outside [0, {nprocs})")
        for ip in (-bad, nprocs - 1 + bad):
            with pytest.raises(ValueError, match=outside):
                num_local_before_array(5, nb, wrap(ip), nprocs)
            with pytest.raises(ValueError, match=outside):
                numroc_array(5, nb, wrap(ip), nprocs)
        with pytest.raises(ValueError, match="n must be >= 0"):
            numroc_array(wrap(-bad), nb, 0, nprocs)


class TestSectionExtents:
    @given(st.integers(1, 300), blocks, st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(list(Schedule)), st.floats(0.0, 1.0))
    def test_every_rank_matches_the_scalar_bounds(self, n, nb, p, q, sched, frac):
        """One broadcast call over (iteration, row, col) gives every
        process's sections at every iteration, panel 0's placement
        (k = -1) and the ragged last block included, as the scalar
        helpers define them."""
        nblocks = -(-n // nb)
        ext = section_extents(n, nb, p, q, sched, frac,
                              np.arange(-1, nblocks)[:, None, None],
                              np.arange(p)[None, :, None], np.arange(q)[None, None, :])
        classic = sched is Schedule.CLASSIC
        for col in range(q):
            nloc = numroc(n + 1, nb, col, q)
            split = sched is Schedule.SPLIT_UPDATE
            sp = (nloc - round(frac * nloc)) // nb * nb if split else 0
            for i, k in enumerate(range(-1, nblocks)):
                j1 = min(n, (k + 1) * nb)
                lo = num_local_before(j1, nb, col, q)
                la_hi = lo if classic else num_local_before(min(n, j1 + nb), nb, col, q)
                mode = "classic" if classic else "split" if lo < sp else "lookahead"
                for row in range(p):
                    m_update = numroc(n, nb, row, p) - num_local_before(j1, nb, row, p)
                    got = [int(a[i, row, col]) for a in
                           (ext.lo, ext.la_hi, ext.sp, ext.nloc_aug, ext.m_update)]
                    assert got == [lo, la_hi, sp, nloc, m_update], (k, row, col)
                    assert MODE_NAMES[ext.mode[i, row, col]] == mode


class TestValidation:
    def test_negative_global_index(self):
        with pytest.raises(ValueError):
            owning_process(-1, 4, 2)
        with pytest.raises(ValueError):
            num_local_before(-1, 4, 0, 2)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            numroc(10, 0, 0, 2)

    def test_bad_proc(self):
        with pytest.raises(ValueError):
            num_local_before(5, 2, 3, 2)

    def test_single_process_owns_everything(self):
        assert numroc(100, 7, 0, 1) == 100
        assert np.array_equal(local_indices(100, 7, 0, 1), np.arange(100))

    def test_block_boundary_ownership(self):
        # nb=4, 3 procs: indices 0-3 -> p0, 4-7 -> p1, 8-11 -> p2, 12-15 -> p0
        assert [owning_process(g, 4, 3) for g in (0, 3, 4, 8, 12)] == [0, 0, 1, 2, 0]
