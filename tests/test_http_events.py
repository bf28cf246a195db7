"""``GET /v1`` + ``GET /v1/events`` over HTTP, and the watch clients.

Covers the API-redesign surface end to end: the discovery document,
long-poll batches with resumable cursors, SSE framing with
``Last-Event-ID`` resume, server-side filters (job/kind/state/
campaign), the typed 422 ``bad_cursor`` / 410 ``events_truncated``
errors, the opaque queue-page cursor, and ``watch()``/``wait()`` riding
the feed on both clients.
"""

from __future__ import annotations

import asyncio
import time
import urllib.request

import pytest

from repro.errors import BadCursorError, EventsTruncatedError
from repro.service.events import encode_cursor, encode_queue_cursor
from repro.service.http import (
    AsyncServiceClient,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.service.views import EventView

pytestmark = pytest.mark.dedicated


@pytest.fixture(params=[1, 3], ids=["1shard", "3shard"])
def server(request, tmp_path):
    with ServiceHTTPServer(tmp_path / "svc", port=0, workers=2,
                           backoff_base=0.01,
                           shards=request.param) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, retry_429=0)


def _drain(client, jid, timeout=30.0):
    """Returns once the job's terminal event is in the log.

    A state poll is not enough: ``complete_leased`` commits the DONE row
    before it appends ``done``, so the row can be read a moment before
    the event the caller is about to assert on exists.
    """
    client.wait([jid], timeout=timeout)


class TestDiscovery:
    def test_discovery_document(self, server, client):
        doc = client._request("GET", "/v1")
        assert doc["version"] == "1"
        assert "events" in doc["capabilities"]
        assert "GET /v1/events" in doc["endpoints"]
        assert "GET /v1" in doc["endpoints"]
        assert doc["nshards"] == server.service.nshards

    def test_capabilities_probe_is_cached(self, server, client):
        assert "events" in client.capabilities()
        calls = []
        original = client._request
        client._request = lambda *a, **k: (calls.append(a),
                                           original(*a, **k))[1]
        assert "events" in client.capabilities()  # cached: no round-trip
        assert calls == []


class TestLongPoll:
    def test_full_lifecycle_from_begin(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        views, cursor, timed_out = client.events(cursor="begin",
                                                 job_ids=[jid])
        assert [v.kind for v in views] == \
            ["submitted", "claimed", "launched", "done"]
        assert views[-1].terminal and not timed_out
        # The returned cursor is caught up: nothing more, timed_out.
        views, cursor, timed_out = client.events(cursor=cursor,
                                                 timeout=0.05)
        assert views == [] and timed_out

    def test_cursor_resume_never_duplicates_or_drops(self, server,
                                                     client):
        ids = [client.submit("probe", {"behavior": "ok", "tag": i}
                             ).new[0] for i in range(4)]
        for jid in ids:
            _drain(client, jid)
        full, _, _ = client.events(cursor="begin")
        # Page through the same history two events at a time.
        paged, cursor = [], "begin"
        while True:
            batch, cursor, _ = client.events(cursor=cursor, limit=2)
            if not batch:
                break
            paged.extend(batch)
        assert [v.cursor for v in paged] == [v.cursor for v in full]
        # And resuming from any event's own cursor yields the suffix.
        anchor = full[len(full) // 2]
        rest, _, _ = client.events(cursor=anchor.cursor)
        assert [v.cursor for v in rest] == \
            [v.cursor for v in full[full.index(anchor) + 1:]]

    def test_now_sentinel_sees_only_new_events(self, server, client):
        old = client.submit("probe", {"behavior": "ok",
                                      "tag": "old"}).new[0]
        _drain(client, old)
        _, cursor, _ = client.events(cursor="now", timeout=0.0)
        jid = client.submit("probe", {"behavior": "ok",
                                      "tag": "new"}).new[0]
        _drain(client, jid)
        views, _, _ = client.events(cursor=cursor)
        assert views and all(v.job_id == jid for v in views)

    def test_filters(self, server, client):
        done = client.submit("probe", {"behavior": "ok"}).new[0]
        failed = client.submit("probe", {"behavior": "crash",
                                         "boom": 1},
                               max_retries=0).new[0]
        _drain(client, done)
        _drain(client, failed)
        views, _, _ = client.events(cursor="begin", states={"done"})
        assert {v.job_id for v in views} == {done}
        views, _, _ = client.events(cursor="begin", kinds={"failed"})
        assert {v.job_id for v in views} == {failed}
        views, _, _ = client.events(cursor="begin", job_ids=[failed],
                                    states=["FAILED"])
        assert [v.job_id for v in views] == [failed]

    def test_campaign_filter(self, server, client):
        stray = client.submit("probe", {"behavior": "ok",
                                        "tag": "stray"}).new[0]
        campaign = client.submit_campaign({
            "name": "feed", "stages": [
                {"name": "only",
                 "sweep": {"kind": "probe", "axes": {"tag": [1, 2]},
                           "base": {"behavior": "echo"}}},
            ],
        })
        views, cursor = [], "begin"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            batch, cursor, _ = client.events(cursor=cursor, timeout=1.0,
                                             campaign=campaign.id)
            views.extend(batch)
            terminal = {v.job_id for v in views if v.terminal}
            if len(terminal) == campaign.njobs:
                break
        jobs = {v.job_id for v in views}
        assert stray not in jobs and len(jobs) == campaign.njobs

    def test_timeout_reports_timed_out(self, server, client):
        t0 = time.monotonic()
        views, _, timed_out = client.events(cursor="now", timeout=0.2)
        assert timed_out and views == [] and \
            time.monotonic() - t0 >= 0.15


class TestErrorContract:
    def test_undecodable_cursor_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.events(cursor="junk-token")

    def test_wrong_shard_count_is_422(self, server, client):
        nshards = server.service.nshards
        token = encode_cursor([0] * (nshards + 1))
        with pytest.raises(BadCursorError):
            client.events(cursor=token)

    def test_compacted_offset_is_410(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        nshards = server.service.nshards
        stale = encode_cursor([0] * nshards)
        server.service.store.truncate_events()
        with pytest.raises(EventsTruncatedError):
            client.events(cursor=stale)
        # The begin sentinel resolves to the post-compaction base.
        views, _, timed_out = client.events(cursor="begin",
                                            timeout=0.05)
        assert views == [] and timed_out

    def test_queue_token_on_event_feed_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.events(cursor=encode_queue_cursor(0))


class TestQueueCursor:
    def test_pagination_by_cursor(self, server, client):
        ids = {client.submit("probe", {"behavior": "ok", "tag": i}
                             ).new[0] for i in range(7)}
        page = client.status(limit=3)
        seen, pages = {j.id for j in page.jobs}, 1
        while page.cursor:
            page = client.status(limit=3, cursor=page.cursor)
            seen |= {j.id for j in page.jobs}
            pages += 1
        assert seen >= ids and pages == 3

    def test_bad_queue_cursor_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.status(cursor="junk")
        with pytest.raises(BadCursorError):
            client.status(cursor=encode_cursor([0]))  # event token


class TestSSE:
    def test_stream_frames_and_heartbeat(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        request = urllib.request.Request(
            server.url + "/v1/events?heartbeat=0.2",
            headers={"Accept": "text/event-stream"})
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            lines, heartbeats, frames = [], 0, []
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and heartbeats < 1:
                line = resp.readline().decode().rstrip("\n")
                if line.startswith(":"):
                    heartbeats += 1
                lines.append(line)
            text = "\n".join(lines)
        assert "event: submitted" in text and "event: done" in text
        assert "id: " in text and heartbeats >= 1

    def test_last_event_id_resumes(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        full, _, _ = client.events(cursor="begin", job_ids=[jid])
        anchor = full[1]  # resume after "claimed"
        stream = client.events_stream(cursor=anchor.cursor,
                                      job_ids=[jid], reconnect=False,
                                      heartbeat=0.2)
        resumed = []
        for view in stream:
            resumed.append(view)
            if view.terminal:
                break
        assert [v.cursor for v in resumed] == \
            [v.cursor for v in full[2:]]

    def test_events_stream_client_yields_views(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        seen = []
        for view in client.events_stream(cursor="begin", job_ids=[jid],
                                         heartbeat=0.2,
                                         reconnect=False):
            seen.append(view)
            if view.terminal:
                break
        assert isinstance(seen[0], EventView)
        assert [v.kind for v in seen] == \
            ["submitted", "claimed", "launched", "done"]


class TestWatchAndWait:
    def test_watch_yields_lifecycle_then_ends(self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        views = list(client.watch([jid], timeout=30.0))
        assert [v.kind for v in views] == \
            ["submitted", "claimed", "launched", "done"]
        assert views[-1].terminal

    def test_wait_rides_the_feed(self, server, client):
        ids = [client.submit("probe", {"behavior": "ok", "tag": i}
                             ).new[0] for i in range(3)]
        counting = []
        original = client._send
        def spy(request, path, timeout=None):
            counting.append(path.split("?")[0])
            return original(request, path, timeout=timeout)
        client._send = spy
        views = client.wait(ids, timeout=30.0)
        assert {k: v.state for k, v in views.items()} == \
            {jid: "DONE" for jid in ids}
        # The feed carried the waiting: exactly one result fetch per
        # job, no repeated status polling.
        results = [p for p in counting if p.endswith("/result")]
        assert sorted(results) == sorted(
            f"/v1/jobs/{jid}/result" for jid in ids)

    def test_watch_timeout_raises(self, server, client):
        from repro.service.http import WaitTimeout
        jid = client.submit("probe", {"behavior": "sleep",
                                      "seconds": 30.0},
                            timeout=60.0).new[0]
        with pytest.raises(WaitTimeout):
            list(client.watch([jid], timeout=0.5, poll=0.2))
        client.cancel_job(jid)

    def test_async_watch_and_wait(self, server):
        async def run():
            ac = AsyncServiceClient(server.url)
            jid = (await ac.submit("probe", {"behavior": "ok"})).new[0]
            kinds = []
            async for view in ac.watch([jid], timeout=30.0):
                kinds.append(view.kind)
            assert kinds == ["submitted", "claimed", "launched", "done"]
            views = await ac.wait([jid], timeout=30.0)
            assert views[jid].state == "DONE"
        asyncio.run(run())
