"""Hypothesis properties of the shard router and merged pagination.

Two invariants carry the whole sharding design, so they get generative
coverage (at 200 examples each, well past the default profile):

* **Stable partition** -- `shard_index` is a pure function of the key
  (same shard across calls, processes, and restarts), and the shard
  queues it induces are pairwise disjoint with union equal to the
  logical queue.
* **Global pagination** -- for ANY population of jobs, ANY state/kind
  filter and ANY page size, walking ``k`` cursor pages of a sharded
  service's ``status()`` yields byte-for-byte the pages a single-store
  service seeded identically would serve, in ``store.list()`` order.
  This is what lets clients, dashboards, and the fleet treat a sharded
  coordinator as one queue.

The populations use explicit ids and created-timestamps (including
ties, which exercise the ``(created, id)`` tiebreak) rather than the
wall clock, so every example is reproducible.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    Job,
    JobState,
    Service,
    ShardedStore,
    shard_index,
    shard_workdirs,
)

_STATES = [s.value for s in JobState]
_KINDS = ["probe", "sim", "scale"]

_keys = st.text(
    alphabet=st.characters(codec="utf-8",
                           categories=("L", "N", "P", "S", "Z")),
    max_size=40,
)

_populations = st.lists(
    st.tuples(
        # created timestamps drawn from a small range so ties are
        # common, exercising the (created, id) tiebreak; 0 is excluded
        # because Job.__post_init__ treats it as "stamp the wall clock".
        st.integers(min_value=1, max_value=9),
        st.sampled_from(_KINDS),
        st.sampled_from(_STATES),
    ),
    max_size=30,
)

_windows = st.tuples(
    st.one_of(st.none(), st.sampled_from(_STATES)),   # state filter
    st.one_of(st.none(), st.sampled_from(_KINDS)),    # kind filter
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)),  # limit
    st.integers(min_value=1, max_value=4),            # cursor pages walked
)


class TestStablePartition:
    @given(key=_keys, nshards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_router_is_deterministic_and_in_range(self, key, nshards):
        first = shard_index(key, nshards)
        assert 0 <= first < nshards
        assert first == shard_index(key, nshards)

    @given(keys=st.lists(_keys, max_size=40),
           nshards=st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_shard_queues_partition_the_logical_queue(self, keys, nshards):
        """Union of the shard queues == logical queue, pairwise disjoint,
        and each job sits exactly where the router says -- also after
        closing and reopening the store (restart stability).
        """
        with tempfile.TemporaryDirectory() as td:
            paths = shard_workdirs(td, nshards)
            store = ShardedStore(paths)
            expected = {}
            for i, key in enumerate(keys):
                job = Job(id=f"job{i:04d}", kind="probe",
                          payload={"i": i}, key=key, created=float(i))
                store.add(job)
                expected[job.id] = shard_index(key, nshards)
            store.close()

            reopened = ShardedStore(paths)
            per_shard = [
                {j.id for j in shard.list()} for shard in reopened.shards
            ]
            union = set().union(*per_shard) if per_shard else set()
            assert union == set(expected)                   # union
            assert sum(len(s) for s in per_shard) == len(expected)  # disjoint
            for jid, target in expected.items():            # stable routing
                assert jid in per_shard[target]
            reopened.close()


class TestGlobalPagination:
    @given(population=_populations, window=_windows,
           nshards=st.integers(min_value=2, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_sharded_status_page_equals_single_store_page(
            self, population, window, nshards):
        state, kind, limit, npages = window

        def walk(svc):
            pages, cursor = [], None
            for _ in range(npages):
                pages.append(svc.status(state=state, kind=kind,
                                        limit=limit, cursor=cursor))
                cursor = pages[-1].cursor
                if cursor is None:
                    break
            return pages

        with tempfile.TemporaryDirectory() as td:
            single = Service(f"{td}/single")
            sharded = Service(f"{td}/sharded", shards=nshards)
            for i, (created, job_kind, job_state) in enumerate(population):
                for svc in (single, sharded):
                    svc.store.add(Job(
                        id=f"job{i:04d}", kind=job_kind,
                        payload={"i": i}, key=f"key-{i}",
                        state=JobState(job_state),
                        created=float(created),
                        # A RUNNING row is always held by a lease (a
                        # lease-less one is an orphan the page's expiry
                        # sweep would requeue); park it far in the future.
                        lease_expires=(
                            1e12 if job_state == "RUNNING" else 0.0),
                    ))
            wants, gots = walk(single), walk(sharded)
            assert len(gots) == len(wants)
            for got, want in zip(gots, wants):
                assert [j.id for j in got.jobs] == [j.id for j in want.jobs]
                # The full page payloads match, not just the id order.
                assert [j.to_dict() for j in got.jobs] == \
                    [j.to_dict() for j in want.jobs]
                assert got.counts == want.counts
                assert got.total == want.total
                assert got.outstanding == want.outstanding
                assert got.cursor == want.cursor
            # The pages are consecutive windows of the one global order.
            walked = [j.id for page in gots for j in page.jobs]
            assert walked == [
                j.id for j in single.store.list(state=state, kind=kind)
            ][:len(walked)]
            single.store.close()
            sharded.store.close()
