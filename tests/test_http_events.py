"""``GET /v1`` + ``GET /v1/events`` over HTTP, and the watch clients.

Covers the API-redesign surface end to end: the discovery document,
long-poll batches with resumable cursors (the feed's one wire form: a
request that asks for a stream gets the same JSON page), server-side
filters (job/kind/state/campaign), the typed 422 ``bad_cursor`` error,
the opaque keyset queue-page cursor, and ``watch()``/``wait()`` riding
the feed, from any thread that shares the client.
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time

import pytest

from repro.errors import BadCursorError
from repro.service import JobStore, Service
from repro.service.events import encode_cursor, encode_queue_cursor
from repro.service.http import ServiceClient, ServiceHTTPServer

pytestmark = pytest.mark.dedicated


@pytest.fixture
def server(request, tmp_path):
    """A served workdir; ``"reopened"`` (indirect parameter) starts it
    on a log an earlier server life filled, so the log does not start
    with the test's own events and every id the feed hands out lies
    past that history."""
    if getattr(request, "param", "fresh") == "reopened":
        store = JobStore(tmp_path / "svc")
        for i in range(5):
            store._event(f"gone-{i}", "submitted")
        assert store.events_end() == 5
        store.close()
    with ServiceHTTPServer(tmp_path / "svc", port=0, workers=2,
                           backoff_base=0.01) as srv:
        yield srv


#: The feed's contracts hold on a fresh log and on a reopened one.
both_logs = pytest.mark.parametrize("server", ["fresh", "reopened"],
                                    indirect=True)


@pytest.fixture
def client(server):
    return ServiceClient(server.url, retry_429=0)


def _drain(client, jid, timeout=30.0):
    """Returns once the job is terminal.

    A row and its events commit in one transaction, so once the job
    reads terminal its terminal event is in the log.
    """
    client.wait([jid], timeout=timeout)


class TestDiscovery:
    def test_discovery_document(self, server, client):
        doc = client._request("GET", "/v1")
        assert doc["version"] == "1"
        assert "events" in doc["capabilities"]
        assert "GET /v1/events" in doc["endpoints"]
        assert "GET /v1" in doc["endpoints"]
        assert set(doc) == {"version", "service", "capabilities",
                            "endpoints"}

    def test_capabilities_probe_is_cached(self, server, client):
        assert "events" in client.capabilities()
        calls = []
        original = client._request
        client._request = lambda *a, **k: (calls.append(a),
                                           original(*a, **k))[1]
        assert "events" in client.capabilities()  # cached: no round-trip
        assert calls == []


@both_logs
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


@both_logs
class TestErrorContract:
    def test_undecodable_cursor_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.events(cursor="junk-token")

    def test_one_offset_token_resumes_and_multi_offset_is_422(
            self, server, client):
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)

        def token(raw: bytes) -> str:
            return base64.urlsafe_b64encode(raw).decode().rstrip("=")

        # The one-id shape this server mints resumes ...
        views, _, _ = client.events(cursor=token(b'{"v":2,"e":0}'))
        assert jid in {v.job_id for v in views}
        # ... and neither a list of ids nor a version-1 byte offset does.
        with pytest.raises(BadCursorError):
            client.events(cursor=token(b'{"v":2,"e":[0,0,0]}'))
        with pytest.raises(BadCursorError, match="unsupported"):
            client.events(cursor=token(b'{"v":1,"o":[0]}'))

    def test_queue_token_on_event_feed_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.events(cursor=encode_queue_cursor(0.0, "j"))

    def test_cursor_past_the_end_is_422(self, server, client):
        """A well-formed token naming an id the log has not reached is
        outside input the server rejects, not a wait for the future."""
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        end = server.service.store.events_end()
        views, cursor, _ = client.events(cursor=encode_cursor(end),
                                         timeout=0.05)
        assert views == [] and cursor == encode_cursor(end)
        with pytest.raises(BadCursorError, match="beyond the end"):
            client.events(cursor=encode_cursor(end + 1), timeout=0.05)


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

    @pytest.mark.parametrize("backend", ["in_process", "http"])
    def test_jobs_leaving_the_filter_do_not_skip_the_next_page(
            self, tmp_path, backend):
        """Claiming page 1's PENDING jobs must not move page 2 past the
        jobs that were third and fourth: the cursor is the last row's
        key, not a row count."""
        svc = Service(tmp_path / "svc")
        srv = None
        if backend == "http":
            srv = ServiceHTTPServer(tmp_path / "svc", workers=0).start()
            svc = ServiceClient(srv.url)
        try:
            for i in range(6):
                svc.submit("probe", {"behavior": "ok", "tag": i})
            order = [j.id for j in svc.status(state="PENDING").jobs]
            first = svc.status(state="PENDING", limit=2)
            assert [j.id for j in first.jobs] == order[:2]
            _, claimed = svc.claim_jobs("w", n=2)
            assert [j.id for j in claimed] == order[:2]
            second = svc.status(state="PENDING", limit=2,
                                cursor=first.cursor)
            assert [j.id for j in second.jobs] == order[2:4]
            third = svc.status(state="PENDING", limit=2,
                               cursor=second.cursor)
            assert [j.id for j in third.jobs] == order[4:]
            assert third.cursor is None
        finally:
            if srv is not None:
                srv.shutdown()

    def test_bad_queue_cursor_is_422(self, server, client):
        with pytest.raises(BadCursorError):
            client.status(cursor="junk")
        with pytest.raises(BadCursorError):
            client.status(cursor=encode_cursor(0))  # event token


class TestOneWireForm:
    def test_stream_headers_get_the_long_poll_page(self, server, client):
        """No content negotiation: a request asking for an event stream
        and naming a resume header gets the ordinary JSON page, from
        ``begin`` (``cursor=`` is the only resume token), and leaves
        its connection kept for the next request."""
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        _drain(client, jid)
        begin, _, _ = client.events(cursor="begin")
        headers = {"Accept": "text/event-stream",
                   "Last-Event-ID": begin[-1].cursor}
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10.0)
        try:
            socks = []
            for _ in range(2):
                conn.request("GET", "/v1/events", headers=headers)
                resp = conn.getresponse()
                body = resp.read()
                socks.append(conn.sock)
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "application/json"
                assert int(resp.headers["Content-Length"]) == len(body)
                assert not resp.will_close
                page = json.loads(body)
                assert [e["cursor"] for e in page["events"]] == \
                    [v.cursor for v in begin]
            assert socks[0] is not None and socks[1] is socks[0]
        finally:
            conn.close()


@both_logs
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

    def test_watch_and_wait_on_another_thread(self, server, client):
        """A thread sharing the client (on its own connection) watches
        and waits as the submitting thread would."""
        jid = client.submit("probe", {"behavior": "ok"}).new[0]
        kinds, states = [], []

        def run():
            for view in client.watch([jid], timeout=30.0):
                kinds.append(view.kind)
            states.append(client.wait([jid], timeout=30.0)[jid].state)

        waiter = threading.Thread(target=run)
        waiter.start()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert kinds == ["submitted", "claimed", "launched", "done"]
        assert states == ["DONE"]


class TestEarlierReleaseStreamRows:
    """An earlier release logged ``stream_started`` / ``stream_finished``
    around a chunk-uploaded result.  This one never writes them, and
    reads a log holding them like any other: replayed in id order,
    implying no state, invisible to ``wait``."""

    def test_stream_rows_replay_and_watch_is_unaffected(self, tmp_path):
        svc = Service(tmp_path / "svc")
        jid = svc.submit("probe", {"behavior": "ok"}).new[0]
        lease, _ = svc.claim_jobs("old-release", n=1)
        svc.store._event(jid, "stream_started", lease=lease.id)
        svc.store._event(jid, "stream_finished", lease=lease.id, size=2048)
        svc.complete_job(jid, lease.id, {"ok": True})
        svc.store.close()
        lifecycle = ["submitted", "claimed", "launched", "stream_started",
                     "stream_finished", "done"]
        with ServiceHTTPServer(tmp_path / "svc", workers=1,
                               backoff_base=0.01) as srv:
            client = ServiceClient(srv.url)
            begin, _, _ = client.events(cursor="begin")
            assert [v.kind for v in begin] == lifecycle
            mine, _, _ = client.events(cursor="begin", job_ids=[jid])
            assert mine == begin
            assert [v.state for v in mine[3:5]] == ["", ""]
            watched = list(client.watch([jid], timeout=30.0))
            assert [v.kind for v in watched] == lifecycle
            views = client.wait([jid], timeout=30.0)
            assert views[jid].result == {"ok": True}
            # A job run by this release logs no stream rows.
            fresh = client.submit("probe", {"behavior": "ok", "tag": 1}
                                  ).new[0]
            assert client.wait([fresh], timeout=30.0)[fresh].ready
            kinds = [v.kind for v in
                     client.events(cursor="begin", job_ids=[fresh])[0]]
            assert kinds == ["submitted", "claimed", "launched", "done"]
