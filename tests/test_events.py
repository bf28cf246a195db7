"""The event-feed primitives: cursors, log tailing, broker.

The feed's contract is *exactly-once resumability over the store's
``events`` table*: every event carries a cursor (its id) that resumes
just past it, ids survive restarts (nothing deletes from the log and
ids are never reused), and the broker reads in id order, which is
commit order.  A workdir an older release left -- an ``events.jsonl``
log, an ``events.base`` sidecar, byte offsets in ``jobs.events_from``
-- opens, leaves both files alone, refuses the byte-offset tokens of
that release, and still lets a watch see its finished jobs finish.
The Hypothesis property at the bottom pins the core invariant under a
live writer: a reader tailing the log concurrently with appends sees
every record exactly once, whole, in write order.
"""

from __future__ import annotations

import base64
import json
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadCursorError
from repro.service import Job, JobStore, Service, payload_key
from repro.service import store as store_module
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
from repro.service.http import ServiceClient, ServiceHTTPServer
from repro.service.jobs import COLUMNS, JobState
from repro.service.views import EventView

pytestmark = pytest.mark.dedicated


def _token(payload: dict) -> str:
    """A cursor token carrying ``payload`` verbatim."""
    raw = json.dumps(payload).encode()
    return base64.urlsafe_b64encode(raw).decode().rstrip("=")


class TestCursorTokens:
    def test_roundtrip_keeps_the_one_offset_wire_shape(self):
        for event_id in (0, 17, 123456789):
            token = encode_cursor(event_id)
            assert decode_cursor(token) == event_id
            assert "=" not in token  # unpadded: URL- and header-safe
            padded = token + "=" * (-len(token) % 4)
            assert json.loads(base64.urlsafe_b64decode(padded)) == \
                {"v": 2, "e": event_id}

    @pytest.mark.parametrize("token", [
        "not-base64!!", "", "AAAA", encode_queue_cursor(5.0, "j"),
        _token({"v": 1, "o": [-1]}),
        _token({"v": 2, "o": [0]}), _token({"o": [0]}),
        _token({"v": "1", "o": [0]}), _token({"v": 1}),
        _token({"v": 1, "o": []}), _token({"v": 1, "o": 0}),
        _token({"v": 1, "o": ["0"]}), _token({"v": 1, "o": [1.5]}),
        _token([0]), _token(None),
        # JSON ``true`` and ``1.0`` compare equal to 1 in Python; no
        # server ever minted either.
        _token({"v": 1, "o": [True]}), _token({"v": True, "o": [0]}),
        _token({"v": 1.0, "o": [0]}),
        _token({"v": 2, "e": -1}), _token({"v": 3, "e": 0}),
        _token({"e": 0}), _token({"v": "2", "e": 0}), _token({"v": 2}),
        _token({"v": 2, "e": [0]}), _token({"v": 2, "e": "0"}),
        _token({"v": 2, "e": 1.5}), _token({"v": 2, "e": True}),
        _token({"v": 2.0, "e": 0}),
    ])
    def test_junk_is_bad_cursor(self, token):
        with pytest.raises(BadCursorError):
            decode_cursor(token)

    def test_multi_offset_token_is_bad_cursor(self):
        with pytest.raises(BadCursorError, match="malformed"):
            decode_cursor(_token({"v": 2, "e": [0, 0, 0]}))
        # A byte-offset token of an earlier release, one offset or many.
        for offsets in ([0], [0, 0, 0]):
            with pytest.raises(BadCursorError, match="earlier release"):
                decode_cursor(_token({"v": 1, "o": offsets}))

    def test_queue_cursor_roundtrip_and_cross_rejection(self):
        token = encode_queue_cursor(1700000000.123456, "abc123")
        assert decode_queue_cursor(token) == (1700000000.123456, "abc123")
        assert "=" not in token
        with pytest.raises(BadCursorError):
            decode_queue_cursor(encode_cursor(0))  # event token on queue
        with pytest.raises(BadCursorError):
            decode_queue_cursor("garbage")
        # An earlier release's row-offset token.
        with pytest.raises(BadCursorError, match="earlier release"):
            decode_queue_cursor(_token({"v": 1, "q": 40}))

    @pytest.mark.parametrize("payload", [
        {"v": 1, "q": -1}, {"v": 1, "q": "3"}, {"v": 1, "q": 2.0},
        {"v": 1, "q": True}, {"v": True, "q": 0}, {"v": 2, "q": 0},
        {"v": 2, "c": 1.5}, {"v": 2, "i": "j"}, {"v": 2, "c": "1", "i": "j"},
        {"v": 2, "c": True, "i": "j"}, {"v": 2, "c": 1.5, "i": ""},
        {"v": 2, "c": 1.5, "i": 7}, {"v": 3, "c": 1.5, "i": "j"},
        {"v": 2.0, "c": 1.5, "i": "j"},
    ])
    def test_junk_is_bad_queue_cursor(self, payload):
        with pytest.raises(BadCursorError):
            decode_queue_cursor(_token(payload))


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

    def test_reopened_log_keeps_every_event_from_zero(self, tmp_path):
        """Nothing deletes from the log, so a store reopened on it
        replays every event from cursor 0 and appends after them."""
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        store._event("j2", "submitted")
        first, end = store.read_events(0)
        store.close()
        store = JobStore(tmp_path)
        assert EventBroker(store).resolve(BEGIN) == 0
        assert store.read_events(0) == (first, end)
        store._event("j3", "submitted")
        tail, _ = store.read_events(end)
        assert [r["job"] for r, _ in tail] == ["j3"]

    def test_offset_past_end_is_bad_cursor(self, tmp_path):
        store = JobStore(tmp_path)
        store._event("j1", "submitted")
        with pytest.raises(BadCursorError):
            store.read_events(store.events_end() + 1)


def _broker(tmp_path):
    """``(store, broker)`` over a fresh store."""
    store = JobStore(tmp_path)
    return store, EventBroker(store)


class TestBroker:
    def test_read_keeps_file_order(self, tmp_path):
        store, broker = _broker(tmp_path)
        for i in range(12):
            store._event(f"j{i}", "submitted", seq=i)
        views, offset = broker.read(broker.begin_offset())
        assert [v.data["seq"] for v in views] == list(range(12))
        assert offset == store.events_end()

    def test_every_cursor_is_an_exact_resume_point(self, tmp_path):
        store, broker = _broker(tmp_path)
        for i in range(10):
            store._event(f"j{i}", "submitted", seq=i)
        views, _ = broker.read(broker.begin_offset())
        for i, view in enumerate(views):
            rest, _ = broker.read(decode_cursor(view.cursor))
            assert [v.data["seq"] for v in rest] == \
                [v.data["seq"] for v in views[i + 1:]]

    def test_limit_cuts_cleanly(self, tmp_path):
        store, broker = _broker(tmp_path)
        for i in range(9):
            store._event(f"j{i}", "submitted", seq=i)
        collected, offset = [], broker.begin_offset()
        while True:
            views, offset = broker.read(offset, limit=2)
            if not views:
                break
            collected.extend(views)
        assert [v.data["seq"] for v in collected] == list(range(9))

    def test_filters_match_and_still_advance(self, tmp_path):
        store, broker = _broker(tmp_path)
        store._event("a", "submitted", state="PENDING")
        store._event("b", "submitted", state="PENDING")
        store._event("a", "done", state="DONE")
        f = EventFilter.build(job_ids={"a"})
        views, offset = broker.read(broker.begin_offset(), filter=f)
        assert [v.kind for v in views] == ["submitted", "done"]
        assert offset == store.events_end()  # b's event consumed too
        # States fold case; kinds are exact.
        f = EventFilter.build(states={"done"})
        views, _ = broker.read(broker.begin_offset(), filter=f)
        assert [v.job_id for v in views] == ["a"]
        f = EventFilter.build(kinds={"submitted"})
        views, _ = broker.read(broker.begin_offset(), filter=f)
        assert [v.job_id for v in views] == ["a", "b"]

    def test_poll_times_out_then_wakes_on_append(self, tmp_path):
        store, broker = _broker(tmp_path)
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
        store, broker = _broker(tmp_path)
        store._event("j", "submitted")
        assert broker.resolve(BEGIN) == broker.begin_offset()
        assert broker.resolve(None) == broker.begin_offset()
        assert broker.resolve(NOW) == store.events_end()
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

    @pytest.mark.parametrize(
        "case", ["plain", "premigration", "unknown_id", "reopened"])
    def test_equals_the_filtered_replay_without_replaying(
            self, tmp_path, monkeypatch, case):
        service = Service(tmp_path / "svc")
        store = service.store
        # History that has nothing to do with S, in one transaction.
        with sqlite3.connect(store.db_path) as conn:
            conn.executemany(
                "INSERT INTO events (t, job, event, body)"
                " VALUES (?, ?, 'submitted', ?)",
                [(float(i), f"noise{i}", '{"state": "PENDING"}')
                 for i in range(3000)])
        conn.close()
        held: dict[str, int] = {}  # id -> last event id at submit
        for tag in range(6):
            before = store.events_end()
            held[service.submit("probe", {"behavior": "echo",
                                          "tag": tag}).new[0]] = before
        service.run_workers(n=2, max_seconds=60)
        if case == "reopened":  # the submit positions outlive a restart
            store.close()
            service = Service(tmp_path / "svc")
            store = service.store
        watched = list(held)[1::2]  # some, not all
        expected_start = min(held[j] for j in watched)
        if case == "premigration":  # a row older than the column
            with sqlite3.connect(store.db_path) as conn:
                conn.execute("UPDATE jobs SET events_from = 0"
                             " WHERE id = ?", (watched[0],))
            expected_start = 0
        ids = list(watched)
        if case == "unknown_id":
            ids.append("nosuchjob000")
            expected_start = 0

        replay = _pages(service, encode_cursor(0), job_ids=ids)
        first_reads: list[int] = []
        read_events = JobStore.read_events
        monkeypatch.setattr(
            JobStore, "read_events",
            lambda self, offset, limit=None: (
                first_reads.append(offset),
                read_events(self, offset, limit))[1])
        fast = _pages(service, "begin", job_ids=ids)
        monkeypatch.undo()

        # Same events, same order, same cursor tokens ...
        assert fast == replay and len(fast) >= 4 * len(watched) - 6
        assert [(v.job_id, v.kind, v.t) for v in fast] == [
            (v.job_id, v.kind, v.t) for v in _pages(service, "begin")
            if v.job_id in watched]
        # ... read from the jobs' submit positions, not from the start.
        assert first_reads[0] == expected_start
        if case in ("plain", "reopened"):  # and that skipped the 3 000
            assert expected_start > 0


class TestOldWorkdir:
    """A workdir left by the release that logged to ``events.jsonl``."""

    @staticmethod
    def _build(tmp_path, state: JobState):
        """Its layout, built by hand: the ``jobs`` table (whose schema
        this release keeps) holding a row in ``state`` whose
        ``events_from`` is a byte offset, the JSONL log holding that
        row's events up to ``state``, and the compaction base sidecar.
        Yields ``(root, job id)`` and checks both files are untouched."""
        root = tmp_path / "svc"
        root.mkdir()
        payload = {"behavior": "ok"}
        job = Job(id="old000000001", kind="probe", payload=payload,
                  key=payload_key("probe", payload), state=state)
        history = {
            JobState.PENDING: ["submitted"],
            JobState.DONE: ["submitted", "claimed", "launched", "done"],
            JobState.FAILED: ["submitted", "claimed", "launched",
                              "failed"],
            JobState.CANCELLED: ["submitted", "cancelled"],
        }[state]
        log = "".join(
            json.dumps({"event": event, "job": job.id, "pid": 1,
                        "t": 1.0 + i}) + "\n"
            for i, event in enumerate(history))
        with sqlite3.connect(root / "jobs.sqlite") as conn:
            conn.executescript(store_module._SCHEMA)
            conn.execute(
                f"INSERT INTO jobs ({', '.join(COLUMNS)}, events_from)"
                f" VALUES ({', '.join('?' * len(COLUMNS))}, ?)",
                job.to_row() + (123 + 4096,))
        conn.close()
        (root / "events.jsonl").write_text(log)
        (root / "events.base").write_text("123\n")
        files = {name: (root / name).read_bytes()
                 for name in ("events.jsonl", "events.base")}
        yield root, job.id
        assert {name: (root / name).read_bytes() for name in files} == files

    @pytest.fixture
    def old(self, tmp_path):
        """A PENDING job left by that release."""
        yield from self._build(tmp_path, JobState.PENDING)

    @pytest.fixture(params=[JobState.DONE, JobState.FAILED,
                            JobState.CANCELLED], ids=lambda s: s.value)
    def old_done(self, request, tmp_path):
        """A finished job left by that release, in each terminal state:
        its events are only in ``events.jsonl``, none in the table."""
        yield from self._build(tmp_path, request.param)

    def test_opens_and_begin_resolves_to_the_base(self, old):
        root, job_id = old
        service = Service(root)
        store = service.store
        assert store.events() == []  # the old log is not read
        assert service.broker.resolve("begin", [job_id]) == 0
        # The old job runs on, logging into the table.
        lease, (job,) = service.claim_jobs("w", n=1)
        service.complete_job(job.id, lease.id, {"ok": True})
        views, _, _ = service.events(cursor="begin", job_ids=[job_id])
        assert [v.kind for v in views] == ["claimed", "launched", "done"]

    @pytest.mark.parametrize("backend", ["in_process", "http"])
    def test_finished_job_is_seen_finishing(self, old_done, backend):
        """The table holds nothing for the job, so only ``watch``'s
        one-time state check can end a wait on it -- on either backend,
        since both ride the same facade."""
        root, job_id = old_done
        service = Service(root)
        assert service.store.events() == []
        state = service.job(job_id).state
        srv = None
        if backend == "http":
            srv = ServiceHTTPServer(root, workers=0).start()
            service = ServiceClient(srv.url)
        try:
            (view,) = service.watch(job_ids=[job_id], timeout=1.0,
                                    poll=0.1)
            assert (view.job_id, view.state, view.kind) == \
                (job_id, state, state.lower())
            assert view.terminal
            assert view.data == {"synthesized": True}
            # wait() long-polls its whole budget before the state check.
            views = service.wait([job_id], timeout=1.0)  # no WaitTimeout
            assert views[job_id].state == state
        finally:
            if srv is not None:
                srv.shutdown()

    def test_byte_offset_token_is_bad_cursor(self, old):
        root, _ = old
        stale = _token({"v": 1, "o": [123]})  # the old log's base
        with pytest.raises(BadCursorError, match="earlier release"):
            Service(root).events(cursor=stale)
        with ServiceHTTPServer(root, workers=0) as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{srv.url}/v1/events?cursor={stale}", timeout=30)
            assert excinfo.value.code == 422
            assert json.loads(excinfo.value.read())["error"]["code"] == \
                "bad_cursor"
            with ServiceClient(srv.url) as client, \
                    pytest.raises(BadCursorError):
                client.events(cursor=stale)


class TestEventView:
    def test_roundtrip_and_terminal(self):
        view = EventView(cursor="c", t=1.0, job_id="j", kind="done",
                        state="DONE", data={"worker": "w"})
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
    offset = 0
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
