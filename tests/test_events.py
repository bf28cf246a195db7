"""The event-feed primitives: cursors, log tailing, merge, broker.

The feed's contract is *exactly-once resumability over plain JSONL
audit logs*: every event carries a cursor that resumes just past it,
offsets survive restarts and compactions (``events.base`` folds
discarded bytes in), torn tails from a SIGKILLed writer are sealed and
skipped without desynchronizing offsets, and the shard merge never
reorders one shard's file order.  The Hypothesis property at the bottom
pins the core invariant under a live writer: a reader tailing the log
concurrently with appends sees every record exactly once, whole, in
write order.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadCursorError, EventsTruncatedError
from repro.service import JobStore, Service, shard_index
from repro.service.events import (
    BEGIN,
    NOW,
    EventBroker,
    EventFilter,
    decode_cursor,
    decode_queue_cursor,
    encode_cursor,
    encode_queue_cursor,
)
from repro.service.views import EventView

pytestmark = pytest.mark.dedicated


class TestCursorTokens:
    def test_roundtrip(self):
        for offsets in ([0], [0, 0, 0], [17, 0, 123456789]):
            token = encode_cursor(offsets)
            assert decode_cursor(token, len(offsets)) == offsets
            assert "=" not in token  # unpadded: URL- and header-safe

    @pytest.mark.parametrize("token", [
        "not-base64!!", "", "AAAA", encode_queue_cursor(5),
    ])
    def test_junk_is_bad_cursor(self, token):
        with pytest.raises(BadCursorError):
            decode_cursor(token, 1)

    def test_wrong_shard_count_is_bad_cursor(self):
        token = encode_cursor([0, 0])
        with pytest.raises(BadCursorError, match="2 shard"):
            decode_cursor(token, 3)

    def test_negative_offsets_rejected(self):
        import base64
        raw = json.dumps({"v": 1, "o": [-1]}).encode()
        token = base64.urlsafe_b64encode(raw).decode().rstrip("=")
        with pytest.raises(BadCursorError):
            decode_cursor(token, 1)

    def test_queue_cursor_roundtrip_and_cross_rejection(self):
        token = encode_queue_cursor(40)
        assert decode_queue_cursor(token) == 40
        with pytest.raises(BadCursorError):
            decode_queue_cursor(encode_cursor([0]))  # event token on queue
        with pytest.raises(BadCursorError):
            decode_queue_cursor("garbage")


class TestStoreLog:
    def test_offsets_advance_and_resume(self, tmp_path):
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        store._event("j2", "submitted")
        batch, end = store.read_events(0)
        assert [r["job"] for r, _ in batch] == ["j1", "j2"]
        assert end == store.events_end()
        # Resuming from each record's offset yields exactly the suffix.
        mid = batch[0][1]
        tail, _ = store.read_events(mid)
        assert [r["job"] for r, _ in tail] == ["j2"]
        assert store.read_events(end)[0] == []

    def test_offset_past_end_is_bad_cursor(self, tmp_path):
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        with pytest.raises(BadCursorError):
            store.read_events(store.events_end() + 1)

    def test_truncation_folds_into_base(self, tmp_path):
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        store._event("j1", "done")
        end = store.events_end()
        base = store.truncate_events()
        assert base == end == store.events_base() == store.events_end()
        # Offsets from before the compaction are truncated, not bad.
        with pytest.raises(EventsTruncatedError):
            store.read_events(0)
        # The log keeps working and offsets stay monotonic.
        store._event("j2", "submitted")
        batch, new_end = store.read_events(base)
        assert [r["job"] for r, _ in batch] == ["j2"]
        assert new_end > base

    def test_torn_tail_is_left_then_sealed(self, tmp_path):
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        end = store.events_end()
        with open(store.events_path, "ab") as fh:
            fh.write(b'{"job": "torn", "event": "half')  # no newline
        # A live reader never consumes the torn tail.
        batch, pos = store.read_events(0)
        assert [r["job"] for r, _ in batch] == ["j1"] and pos == end
        # Reopening the workdir (the restart path) seals the tail; the
        # sealed junk line is skipped but still advances the offset.
        reopened = JobStore(tmp_path)
        reopened._event("j2", "submitted")
        batch, pos = reopened.read_events(0)
        assert [r["job"] for r, _ in batch] == ["j1", "j2"]
        assert pos == reopened.events_end()


def _broker(tmp_path, nshards=1):
    """``(per-shard stores, broker)`` over a fresh ``nshards`` queue."""
    from repro.service.shard import ShardedStore, shard_workdirs
    store = ShardedStore(shard_workdirs(tmp_path, nshards))
    return store.shards, EventBroker(store)


class TestBroker:
    def test_merge_preserves_per_shard_order(self, tmp_path):
        shards, broker = _broker(tmp_path, nshards=3)
        # Interleave appends across shards; timestamps may collide.
        for i in range(12):
            shards[i % 3]._event(f"j{i}", "submitted", seq=i)
        views, offsets = broker.read(broker.begin_offsets())
        assert len(views) == 12
        for shard in range(3):
            seqs = [v.data["seq"] for v in views if v.shard == shard]
            assert seqs == sorted(seqs), "shard file order violated"
        assert offsets == broker.end_offsets()

    def test_every_cursor_is_an_exact_resume_point(self, tmp_path):
        shards, broker = _broker(tmp_path, nshards=3)
        for i in range(10):
            shards[i % 3]._event(f"j{i}", "submitted", seq=i)
        views, _ = broker.read(broker.begin_offsets())
        for i, view in enumerate(views):
            offsets = decode_cursor(view.cursor, broker.nshards)
            rest, _ = broker.read(offsets)
            assert [v.data["seq"] for v in rest] == \
                [v.data["seq"] for v in views[i + 1:]]

    def test_limit_cuts_cleanly(self, tmp_path):
        shards, broker = _broker(tmp_path, nshards=3)
        for i in range(9):
            shards[i % 3]._event(f"j{i}", "submitted", seq=i)
        collected, offsets = [], broker.begin_offsets()
        while True:
            views, offsets = broker.read(offsets, limit=2)
            if not views:
                break
            collected.extend(views)
        assert sorted(v.data["seq"] for v in collected) == list(range(9))

    def test_filters_match_and_still_advance(self, tmp_path):
        (store,), broker = _broker(tmp_path)
        store._event("a", "submitted", state="PENDING")
        store._event("b", "submitted", state="PENDING")
        store._event("a", "done", state="DONE")
        f = EventFilter.build(job_ids={"a"})
        views, offsets = broker.read(broker.begin_offsets(), filter=f)
        assert [v.kind for v in views] == ["submitted", "done"]
        assert offsets == broker.end_offsets()  # b's event consumed too
        # States fold case; kinds are exact.
        f = EventFilter.build(states={"done"})
        views, _ = broker.read(broker.begin_offsets(), filter=f)
        assert [v.job_id for v in views] == ["a"]
        f = EventFilter.build(kinds={"submitted"})
        views, _ = broker.read(broker.begin_offsets(), filter=f)
        assert [v.job_id for v in views] == ["a", "b"]

    def test_poll_times_out_then_wakes_on_append(self, tmp_path):
        (store,), broker = _broker(tmp_path)
        views, token, timed_out = broker.poll(NOW, timeout=0.05)
        assert views == [] and timed_out
        # An append from another thread wakes a blocked poll promptly.
        def append():
            store._event("late", "submitted")
        timer = threading.Timer(0.1, append)
        timer.start()
        try:
            views, token, timed_out = broker.poll(token, timeout=10.0)
        finally:
            timer.cancel()
        assert not timed_out and [v.job_id for v in views] == ["late"]

    def test_sentinels_and_bad_tokens(self, tmp_path):
        (store,), broker = _broker(tmp_path)
        store._event("j", "submitted")
        assert broker.resolve(BEGIN) == broker.begin_offsets()
        assert broker.resolve(None) == broker.begin_offsets()
        assert broker.resolve(NOW) == broker.end_offsets()
        with pytest.raises(BadCursorError):
            broker.resolve("junk-token")


def _pages(service, cursor, **filters) -> list[EventView]:
    """Every event from ``cursor`` to the end of the feed."""
    out: list[EventView] = []
    while True:
        views, cursor, _ = service.events(cursor=cursor, **filters)
        if not views:
            return out
        out.extend(views)


class TestJobFilteredBegin:
    """``begin`` + a job filter starts where the jobs were submitted."""

    @pytest.mark.parametrize("nshards", [1, 3])
    @pytest.mark.parametrize(
        "case", ["plain", "compacted", "premigration", "unknown_id"])
    def test_equals_the_filtered_replay_without_replaying(
            self, tmp_path, monkeypatch, nshards, case):
        service = Service(tmp_path / "svc", shards=nshards)
        shards = service.store.shards
        for i in range(3000):  # history that has nothing to do with S
            shards[i % nshards]._event(f"noise{i}", "submitted",
                                       state="PENDING")
        held: dict[str, tuple[int, int]] = {}  # id -> (shard, position)
        for tag in range(6):
            if case == "compacted" and tag == 3:
                service.store.truncate_events()
            before = [s.events_end() for s in shards]
            jid = service.submit("probe", {"behavior": "echo",
                                           "tag": tag}).new[0]
            shard = shard_index(service.store.get(jid).key, nshards)
            held[jid] = (shard, before[shard])
        service.run_workers(n=2, max_seconds=60)
        watched = list(held)[1::2]  # some, not all
        bases = [s.events_base() for s in shards]
        expected_start = []
        for k, shard in enumerate(shards):
            positions = [at for on, at in map(held.get, watched) if on == k]
            expected_start.append(max(bases[k], min(positions))
                                  if positions else shard.events_end())
        if case == "premigration":  # a row older than the column
            shard, _ = held[watched[0]]
            with sqlite3.connect(shards[shard].db_path) as conn:
                conn.execute("UPDATE jobs SET events_from = 0"
                             " WHERE id = ?", (watched[0],))
            expected_start[shard] = bases[shard]
        ids = list(watched)
        if case == "unknown_id":
            ids.append("nosuchjob000")
            expected_start = bases

        replay = _pages(service, encode_cursor(bases), job_ids=ids)
        first_reads: dict[str, int] = {}
        read_events = JobStore.read_events
        monkeypatch.setattr(
            JobStore, "read_events",
            lambda self, offset, limit=None: (
                first_reads.setdefault(self.workdir, offset),
                read_events(self, offset, limit))[1])
        fast = _pages(service, "begin", job_ids=ids)
        monkeypatch.undo()

        # Same events, same order, same cursor tokens ...
        assert fast == replay and len(fast) >= 4 * len(watched) - 6
        assert [(v.job_id, v.kind, v.t) for v in fast] == [
            (v.job_id, v.kind, v.t) for v in _pages(service, "begin")
            if v.job_id in watched]
        # ... read from the jobs' submit positions, not from the base.
        assert [first_reads[s.workdir] for s in shards] == expected_start
        if case == "plain":  # and that skipped the 3 000
            assert all(start > base
                       for start, base in zip(expected_start, bases))


class TestEventView:
    def test_roundtrip_and_terminal(self):
        view = EventView(cursor="c", t=1.0, job_id="j", kind="done",
                        state="DONE", shard=0, data={"worker": "w"})
        again = EventView.from_dict(view.to_dict())
        assert again == view and again.terminal
        assert not EventView.from_dict(
            {"cursor": "c", "t": 1.0, "job": "j", "event": "claimed",
             "state": "RUNNING"}).terminal


# -- the live-writer property -----------------------------------------

_events = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.sampled_from(["submitted", "claimed", "done"])),
    min_size=1, max_size=40,
)


@settings(max_examples=20, deadline=None)
@given(events=_events)
def test_concurrent_tail_sees_every_line_whole_and_once(tmp_path_factory,
                                                        events):
    """Tailing under a live writer: no torn, lost, or duplicated lines.

    A writer thread appends the drawn events while the reader tails the
    log with cursor reads in a loop.  The concatenated batches must be
    exactly the written sequence -- whole records, write order, no
    duplicates -- regardless of how the reads interleave with appends.
    """
    tmp_path = tmp_path_factory.mktemp("tail")
    store = JobStore(tmp_path)

    def write():
        for i, (job, kind) in enumerate(events):
            store._event(job, kind, seq=i)

    writer = threading.Thread(target=write)
    collected: list[tuple[dict, int]] = []
    offset = store.events_base()
    writer.start()
    try:
        while True:
            batch, offset = store.read_events(offset, limit=7)
            collected.extend(batch)
            if not writer.is_alive() and len(collected) >= len(events):
                break
    finally:
        writer.join()
    # One final read: nothing further may appear after writer exit.
    batch, offset = store.read_events(offset)
    collected.extend(batch)
    assert [(r["job"], r["event"], r["seq"]) for r, _ in collected] == \
        [(job, kind, i) for i, (job, kind) in enumerate(events)]
    assert offset == store.events_end()
