"""The HTTP front-end: endpoints, error contract, clients, end-to-end.

The acceptance scenario lives in :class:`TestEndToEnd`: a real
``repro serve`` process (subprocess, own worker pool), a 4-point sweep
submitted through :class:`ServiceClient`, cached/deduped
dispositions on resubmission, a cancellation, and results fetched for
the rest -- all over the socket, with a clean shutdown at the end.

Every response crosses the wire as a typed envelope (``{"receipt"}``,
``{"job"}``, the queue page, ``{"error": {"code", "message"}}``) and the
clients hand back the same dataclasses local callers get -- those
round-trips are asserted here.
"""

from __future__ import annotations

import http.client
import inspect
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.errors import (
    ConfigError,
    LeaseConflictError,
    LeaseExpiredError,
    MalformedRequestError,
    ReproError,
    ResultTooLargeError,
    ServiceError,
    UnknownJobError,
    UnknownJobKindError,
    UnknownRouteError,
)
from repro.service import (JobState, JobView, QueuePage, Service,
                           ServiceFacade, SubmitReceipt, Sweep)
from repro.service.api import MAX_BODY_BYTES, MAX_RESULT_BYTES
from repro.service.http import (
    ServiceClient,
    ServiceHTTPServer,
    WaitTimeout,
)

from .conftest import start_serve

pytestmark = pytest.mark.dedicated

#: The primitive calls of ``repro.service.facade``: what a backend
#: answers itself (the derived calls are inherited from the base).
FACADE_CALLS = (
    "submit", "submit_many", "submit_sweep", "submit_campaign", "status",
    "job", "result", "cancel_job", "campaign", "campaigns",
    "campaign_dag", "events", "healthz", "claim_jobs", "heartbeat",
    "complete_job", "fail_job",
)

SIM_SWEEP = Sweep(
    kind="sim",
    axes={"n": [512, 1024], "nb": [64, 128]},
    base={"p": 2, "q": 2},
)


@pytest.fixture
def server(tmp_path):
    """An in-process server with a two-slot pool on an ephemeral port."""
    with ServiceHTTPServer(tmp_path / "svc", port=0, workers=2,
                           backoff_base=0.01) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestEndpoints:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers"] == 2
        assert health["workdir"] == server.service.workdir

    def test_submit_single_and_poll_result(self, client):
        receipt = client.submit("probe", {"behavior": "ok"})
        assert isinstance(receipt, SubmitReceipt)
        assert len(receipt.new) == 1
        jid = receipt.new[0]
        view = client.wait([jid], timeout=60)[jid]
        assert view.state == "DONE" and view.ready is True
        assert view.result["ok"] is True

    def test_submit_sweep_dispositions(self, client):
        receipt = client.submit_sweep(SIM_SWEEP)
        assert len(receipt.new) == 4
        # Same sweep again while jobs are pending/running: every point
        # is deduplicated or already served from cache -- never requeued.
        again = client.submit_sweep(SIM_SWEEP)
        assert not again.new
        assert len(again.deduped) + len(again.cached) == 4

    def test_queue_counts(self, client):
        client.submit("probe", {"behavior": "ok"})
        page = client.status()
        assert isinstance(page, QueuePage)
        assert set(page.counts) == {
            "BLOCKED", "PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED"
        }
        assert page.outstanding >= 0

    def test_queue_pagination_and_filtering(self, tmp_path):
        # No pool: jobs stay PENDING, so the page contents are stable.
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            c = ServiceClient(srv.url)
            ids = [c.submit("probe", {"behavior": "ok", "tag": i}).new[0]
                   for i in range(5)]
            c.submit_sweep(SIM_SWEEP)

            first = c.status(kind="probe", limit=2)
            assert [j.id for j in first.jobs] == ids[:2]
            page = c.status(kind="probe", limit=2, cursor=first.cursor)
            assert [j.id for j in page.jobs] == ids[2:4]
            assert page.total == 5          # pre-window, filtered
            assert page.limit == 2 and page.cursor is not None
            assert page.kind == "probe"
            assert sum(page.counts.values()) == 9  # counts: whole queue

            done = c.status(state="DONE")
            assert done.total == 0 and not done.jobs

            empty = c.status(limit=0)
            assert not empty.jobs and empty.outstanding == 9

    def test_job_view_roundtrips_payload(self, client):
        payload = {"n": 512, "nb": 64, "p": 2, "q": 2}
        receipt = client.submit("sim", payload)
        view = client.job(receipt.new[0])
        assert isinstance(view, JobView)
        assert view.kind == "sim"
        assert view.payload == payload

    def test_cancel_endpoint(self, tmp_path):
        # A server with no pool: jobs stay PENDING and can be cancelled.
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            c = ServiceClient(srv.url)
            jid = c.submit("probe", {"behavior": "ok"}).new[0]
            assert c.cancel_job(jid)[0] is True
            assert c.job(jid).state == "CANCELLED"
            # A second cancel is a no-op, not an error.
            assert c.cancel_job(jid)[0] is False

    def test_failed_job_reports_error_line(self, client):
        jid = client.submit("probe", {"behavior": "crash",
                                      "message": "kaboom"},
                            max_retries=0).new[0]
        view = client.wait([jid], timeout=60)[jid]
        assert view.state == "FAILED" and view.ready is False
        assert "kaboom" in view.job.error
        assert "\n" not in view.job.error  # one-line over the wire


class TestErrorContract:
    def test_unknown_kind_is_422(self, client):
        with pytest.raises(UnknownJobKindError, match="unknown job kind"):
            client.submit("frobnicate", {})

    def test_bad_run_config_is_400(self, client):
        with pytest.raises(ConfigError, match="n must be positive"):
            client.submit("run", {"n": 0, "nb": 8, "p": 2, "q": 2})

    def test_bad_run_sweep_corner_is_400(self, client):
        with pytest.raises(ConfigError):
            client.submit_sweep(Sweep(kind="run",
                                      axes={"n": [64, -1], "nb": 8,
                                            "p": 2, "q": 2}))

    def test_unknown_job_id_is_404(self, client):
        for call in (client.job, client.result, client.cancel_job):
            with pytest.raises(UnknownJobError, match="no such job"):
                call("deadbeef0000")

    def test_unknown_route_is_404(self, client):
        with pytest.raises(UnknownRouteError, match="no such endpoint"):
            client._request("GET", "/v1/nope")

    def test_error_bodies_carry_machine_readable_codes(self, server):
        """The raw wire shape: {"error": {"code", "message"}}."""
        cases = {
            "/v1/jobs/deadbeef0000": (404, "unknown_job"),
            "/v1/nope": (404, "unknown_route"),
        }
        for path, (status, code) in cases.items():
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + path, timeout=10)
            assert excinfo.value.code == status
            body = json.loads(excinfo.value.read())
            assert body["error"]["code"] == code
            assert body["error"]["message"]

    def test_bad_query_parameter_is_400_malformed(self, client):
        with pytest.raises(MalformedRequestError, match="limit"):
            client._request("GET", "/v1/queue?limit=banana")
        with pytest.raises(MalformedRequestError, match="unknown state"):
            client.status(state="SORTA_DONE")

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "malformed"
        assert "\n" not in body["error"]["message"]

    def test_submission_without_kind_or_sweep_is_400(self, client):
        with pytest.raises(MalformedRequestError, match="kind"):
            client._request("POST", "/v1/jobs", {"payload": {}})

    def test_unreachable_server_is_a_service_error(self):
        dead = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            dead.healthz()


def _raw_exchange(sock, request: bytes):
    """One request on a raw socket -> ``(status, Connection, body)``."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    return (response.status, response.getheader("Connection"),
            json.loads(response.read()))


_GET_V1 = b"GET /v1 HTTP/1.1\r\nHost: t\r\n\r\n"

#: (request, status, error code, whether the connection survives it)
_BODY_FRAMING = [
    # A body the route never reads is drained ...
    (b"POST /v1/nope HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\n"
     b'{"x": 1}', 404, "unknown_route", True),
    (b"POST /v1/jobs/nosuchjob/cancel HTTP/1.1\r\nHost: t\r\n"
     b'Content-Length: 8\r\n\r\n{"x": 1}', 404, "unknown_job", True),
    # ... unless it is long (declared here, and never sent),
    (b"POST /v1/nope HTTP/1.1\r\nHost: t\r\n"
     b"Content-Length: 1000000\r\n\r\n", 404, "unknown_route", False),
    # and a length that cannot frame a body is refused, not a 500.
    (b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
     400, "malformed", False),
    (b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
     400, "malformed", False),
    # A body over the cap is refused unread (declared, never sent).
    (b"POST /v1/jobs/nosuchjob/complete HTTP/1.1\r\nHost: t\r\n"
     b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
     413, "too_large", False),
    (b"GET /v1 HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999999\r\n\r\n",
     413, "too_large", False),
]


class TestKeptConnections:
    """One connection per client thread, and what keeping it exposes."""

    @pytest.fixture
    def idle(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            yield srv

    @pytest.mark.parametrize(
        "request_, status, code, survives", _BODY_FRAMING,
        ids=["unread-no-route", "unread-cancel", "unread-long",
             "length-junk", "length-negative", "length-over-cap",
             "length-huge"])
    def test_a_bad_request_never_poisons_the_next(self, idle, request_,
                                                  status, code, survives):
        with socket.create_connection((idle.host, idle.port),
                                      timeout=10) as sock:
            got, connection, body = _raw_exchange(sock, request_)
            assert (got, body["error"]["code"]) == (status, code)
            if survives:
                assert _raw_exchange(sock, _GET_V1)[0] == 200
            else:
                assert connection == "close"
                assert sock.recv(1) == b""  # the server hung up
        with socket.create_connection((idle.host, idle.port),
                                      timeout=10) as sock:
            assert _raw_exchange(sock, _GET_V1)[0] == 200

    def test_the_client_refuses_a_body_over_the_cap_unsent(self, idle):
        """The server would hang up on it mid-send; the client raises
        the same typed error instead, before a byte leaves."""
        client = ServiceClient(idle.url)
        with pytest.raises(ResultTooLargeError, match="request body"):
            client.complete_job("nosuchjob", "l-1",
                                {"blob": "x" * MAX_BODY_BYTES})
        assert client.healthz()["http"] == {"connections": 1,
                                            "requests": 1}

    def test_one_connection_per_client_thread(self, idle):
        client = ServiceClient(idle.url)
        for _ in range(50):
            client.healthz()
        assert client.healthz()["http"] == {"connections": 1,
                                            "requests": 51}
        threads = [threading.Thread(
            target=lambda: [client.healthz() for _ in range(5)])
            for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert client.healthz()["http"] == {"connections": 3,
                                            "requests": 62}

    def test_close_hangs_up_every_thread_then_reconnects(self, idle):
        """``close()`` -- and a ``with`` block's exit -- closes the kept
        connection of every thread that used the client, even while
        threads register theirs concurrently; a later call on any
        thread opens a fresh one."""
        nthreads = 4  # more threads than cores
        used = threading.Barrier(nthreads + 1, timeout=30)
        reused = threading.Barrier(nthreads + 1, timeout=30)
        closed, done, after = threading.Event(), threading.Event(), []

        def other():
            client.healthz()
            used.wait()
            closed.wait(30)
            after.append(client.healthz()["ok"])
            reused.wait()
            done.wait(30)  # stay alive until the second close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(idle.url) as client:
                threads = [threading.Thread(target=other)
                           for _ in range(nthreads)]
                for thread in threads:
                    thread.start()
                client.healthz()
                used.wait()
                conns = list(client._conns)
                assert len(conns) == nthreads + 1
                assert all(conn.sock is not None for conn in conns)
            assert all(conn.sock is None for conn in conns)
            with client:
                closed.set()
                reused.wait()
                assert after == [True] * nthreads
                assert client.healthz()["http"]["connections"] == \
                    2 * (nthreads + 1)
            assert all(conn.sock is None for conn in client._conns)
            done.set()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
            done.set()

    def test_round_trips_do_not_stall_on_nagle(self, idle):
        """Headers and body leave as two writes: with Nagle on, a kept
        connection adds the client's 40 ms delayed ACK to each one."""
        client = ServiceClient(idle.url)
        samples = []
        for _ in range(50):
            start = time.perf_counter()
            client._request("GET", "/v1")
            samples.append(time.perf_counter() - start)
        assert statistics.median(samples) < 0.020

    @pytest.mark.parametrize("first", ["healthz", "submit"])
    def test_a_restarted_server_costs_one_reconnect(self, tmp_path, first):
        old = ServiceHTTPServer(tmp_path / "svc", workers=0).start()
        client = ServiceClient(old.url)
        assert client.healthz()["ok"]
        old.shutdown()
        with ServiceHTTPServer(tmp_path / "svc", port=old.port,
                               workers=0):
            # The kept connection is dead; the call is replayed once.
            if first == "submit":
                assert client.submit("probe", {"behavior": "ok"}).new
            assert client.healthz()["http"]["connections"] == 1
            assert client.submit("probe", {"behavior": "ok"}).new
            assert client.healthz()["http"]["connections"] == 1

    def test_a_stopped_server_hangs_up(self, tmp_path):
        """``shutdown()`` alone leaves the handler thread of a kept
        connection answering from the stopped server's service."""
        before = set(threading.enumerate())
        srv = ServiceHTTPServer(tmp_path / "svc", workers=0).start()
        client = ServiceClient(srv.url)
        sock = socket.create_connection((srv.host, srv.port), timeout=10)
        try:
            assert client.healthz()["ok"]
            assert _raw_exchange(sock, _GET_V1)[0] == 200
            srv.shutdown()
            deadline = time.monotonic() + 1.0
            handlers = None
            while handlers != [] and time.monotonic() < deadline:
                handlers = [t for t in set(threading.enumerate()) - before
                            if "process_request_thread" in t.name]
                time.sleep(0.01)
            assert handlers == []
            with pytest.raises(OSError):  # refused, not answered
                sock.sendall(_GET_V1)
                if sock.recv(1) == b"":
                    raise ConnectionResetError("hung up")
            with pytest.raises(ServiceError, match="cannot reach"):
                client.healthz()
        finally:
            sock.close()


@pytest.fixture
def idle_server(tmp_path):
    """A no-pool server: nothing claims behind the test's back."""
    with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
        yield srv


class TestWireErrorContract:
    def test_healthz_reports_queue_and_leases(self, idle_server):
        health = ServiceClient(idle_server.url).healthz()
        assert health["ok"] is True
        assert set(health) == {"ok", "workdir", "queue", "leases",
                               "workers", "admission", "http"}
        assert sum(health["queue"].values()) == 0 and health["leases"] == 0

    def test_unknown_job_is_404_unknown_job(self, idle_server):
        c = ServiceClient(idle_server.url)
        for call in (c.job, c.result, c.cancel_job):
            with pytest.raises(UnknownJobError, match="no such job"):
                call("deadbeef0000")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                idle_server.url + "/v1/jobs/deadbeef0000", timeout=10)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "unknown_job"

    def test_dead_lease_is_409_lease_expired(self, idle_server):
        c = ServiceClient(idle_server.url)
        with pytest.raises(LeaseExpiredError):
            c.heartbeat("nosuchlease")
        request = urllib.request.Request(
            idle_server.url + "/v1/leases/nosuchlease/heartbeat",
            data=json.dumps({"ttl": 30.0}).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "lease_expired"

    def test_wrong_lease_on_complete_is_409_conflict(self, idle_server):
        c = ServiceClient(idle_server.url)
        ids = [c.submit("probe", {"behavior": "ok", "tag": i}).new[0]
               for i in range(6)]
        lease, claimed = c.claim_jobs("w1", n=6, ttl=30.0)
        assert {j.id for j in claimed} == set(ids)
        with pytest.raises(LeaseConflictError):
            c.complete_job(ids[0], "wrong-lease", {"ok": True})
        request = urllib.request.Request(
            idle_server.url + f"/v1/jobs/{ids[0]}/complete",
            data=json.dumps({"lease": "zzz", "result": {}}).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "conflict"
        # The right lease still works afterwards, on every job.
        for jid in ids:
            assert c.complete_job(jid, lease.id, {"ok": True}).state == "DONE"


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


class TestResultWireContract:
    """``GET /v1/jobs/{id}/result`` is one inline envelope, and
    ``complete`` is the only way a result reaches the coordinator."""

    RESULT = {"tag": "small", "ok": True}

    def _leased(self, server, tag, ttl: float = 30.0):
        c = ServiceClient(server.url)
        jid = c.submit("probe", {"tag": tag}).new[0]
        lease, jobs = c.claim_jobs("w", n=1, ttl=ttl)
        assert [j.id for j in jobs] == [jid]
        return c, jid, lease

    def test_a_ready_result_is_job_ready_result(self, idle_server):
        c, jid, lease = self._leased(idle_server, "ready")
        c.complete_job(jid, lease.id, self.RESULT)
        body = _get_json(idle_server.url + f"/v1/jobs/{jid}/result")
        assert set(body) == {"job", "ready", "result"}
        assert body["ready"] is True and body["result"] == self.RESULT
        assert body["job"]["state"] == "DONE"

    def test_a_pending_result_has_the_same_keys(self, idle_server):
        jid = ServiceClient(idle_server.url).submit(
            "probe", {"tag": "pending"}).new[0]
        body = _get_json(idle_server.url + f"/v1/jobs/{jid}/result")
        assert set(body) == {"job", "ready", "result"}
        assert body["ready"] is False and body["result"] is None
        assert body["job"]["state"] == "PENDING"

    def test_both_backends_answer_result_identically(self, idle_server):
        c, done, lease = self._leased(idle_server, "done")
        c.complete_job(done, lease.id, self.RESULT)
        pending = c.submit("probe", {"tag": "still-pending"}).new[0]
        service = idle_server.service
        for jid in (done, pending):
            wire = _get_json(idle_server.url + f"/v1/jobs/{jid}/result")
            assert service.result(jid).to_dict() == wire
            assert c.result(jid) == service.result(jid)

    def test_complete_after_lease_expiry_is_409_lease_expired(
            self, idle_server):
        c, jid, lease = self._leased(idle_server, "expires", ttl=5.0)
        # Force the sweep past the TTL: the job is requeued under the
        # worker, whose late report must not land.
        idle_server.service.store.expire_leases(now=time.time() + 6.0)
        with pytest.raises(LeaseExpiredError):
            c.complete_job(jid, lease.id, self.RESULT)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(idle_server.url + f"/v1/jobs/{jid}/complete",
                       {"lease": lease.id, "result": self.RESULT})
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "lease_expired"
        assert c.job(jid).state == "PENDING"

    def test_an_oversized_complete_is_413_and_keeps_the_lease(
            self, idle_server):
        c, jid, lease = self._leased(idle_server, "oversized")
        big = {"blob": "x" * MAX_RESULT_BYTES}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(idle_server.url + f"/v1/jobs/{jid}/complete",
                       {"lease": lease.id, "result": big})
        assert excinfo.value.code == 413
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "too_large"
        assert error["message"] == (
            f"result of {MAX_RESULT_BYTES + 11} bytes exceeds the"
            f" {MAX_RESULT_BYTES}-byte limit")
        # Nothing was stored: the job is still leased, and a result
        # that fits completes it under the same lease.
        assert c.job(jid).state == "RUNNING"
        assert c.result(jid).ready is False
        assert c.complete_job(jid, lease.id, self.RESULT).state == "DONE"
        assert c.result(jid).result == self.RESULT

    @pytest.mark.parametrize("method, route", [
        ("POST", "/v1/jobs/{jid}/result/chunks?lease=l&offset=0"),
        ("POST", "/v1/jobs/{jid}/result/finish?lease=l"),
        ("GET", "/v1/jobs/{jid}/result/chunks?offset=0&length=64"),
    ], ids=["upload-chunk", "finish", "read-chunk"])
    def test_a_result_chunk_route_is_404_unknown_route(
            self, idle_server, method, route):
        """An earlier release's chunked upload or ranged read gets a
        typed 404, not a hang or a 500, and the job is untouched."""
        c = ServiceClient(idle_server.url)
        jid = c.submit("probe", {"tag": method + route}).new[0]
        request = urllib.request.Request(
            idle_server.url + route.format(jid=jid), method=method,
            data=b"x" * 64 if method == "POST" else None,
            headers={"Content-Type": "application/octet-stream"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "unknown_route"
        assert c.job(jid).state == "PENDING"


_OK_ITEM = {"kind": "probe", "payload": {"behavior": "ok"}}
_SIM_GRID = {"n": 4096, "nb": 256, "p": 2, "q": 2}

#: One malformed submission per row: what is wrong with it, the typed
#: error it must earn, and the item (``kind``/``payload``/...) or the
#: sweep spec that carries it.
_BAD_ITEMS = {
    "kind-not-a-string": ("malformed", {"kind": [], "payload": {}}),
    "kind-a-list": ("malformed", {"kind": ["probe"], "payload": {}}),
    "kind-unknown": ("unknown_kind", {"kind": "frobnicate"}),
    "payload-not-an-object": ("malformed", {"kind": "probe",
                                            "payload": [1]}),
    "timeout-a-word": ("malformed", {**_OK_ITEM, "timeout": "abc"}),
    "timeout-nan": ("malformed", {**_OK_ITEM, "timeout": "NaN"}),
    "timeout-negative": ("malformed", {**_OK_ITEM, "timeout": -1}),
    "retries-a-word": ("malformed", {**_OK_ITEM, "max_retries": "x"}),
    "retries-null": ("malformed", {**_OK_ITEM, "max_retries": None}),
    "retries-negative": ("malformed", {**_OK_ITEM, "max_retries": -1}),
    "depends-on-a-string": ("malformed", {**_OK_ITEM,
                                          "depends_on": "abc"}),
    "run-missing-fields": ("bad_config", {"kind": "run",
                                          "payload": {"n": -5}}),
    "run-wrong-type": ("bad_config", {"kind": "run", "payload": {
        "n": "64", "nb": 8, "p": 2, "q": 2}}),
    "sim-nb-zero": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "nb": 0}}),
    "sim-pl-not-tiling-p": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "pl": 3}}),
    "sim-unknown-schedule": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "schedule": "eager"}}),
    "sim-split-fraction-2": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "split_fraction": 2}}),
    "kind-missing": ("malformed", {"payload": {}}),
    "kind-empty": ("malformed", {"kind": "", "payload": {}}),
    "payload-null": ("malformed", {"kind": "probe", "payload": None}),
    "payload-a-string": ("malformed", {"kind": "probe", "payload": "x"}),
    "timeout-infinite": ("malformed", {**_OK_ITEM, "timeout": "Infinity"}),
    "timeout-a-list": ("malformed", {**_OK_ITEM, "timeout": []}),
    "retries-a-list": ("malformed", {**_OK_ITEM, "max_retries": [1]}),
    "retries-a-fraction": ("malformed", {**_OK_ITEM, "max_retries": "1.5"}),
    "depends-on-a-number": ("malformed", {**_OK_ITEM, "depends_on": 7}),
    "depends-on-an-empty-id": ("malformed", {**_OK_ITEM,
                                             "depends_on": [""]}),
    "depends-on-a-number-id": ("malformed", {**_OK_ITEM,
                                             "depends_on": [1]}),
    "depends-on-an-unknown-job": ("unknown_parent", {
        **_OK_ITEM, "depends_on": ["nosuchjob"]}),
    "run-nb-zero": ("bad_config", {"kind": "run", "payload": {
        "n": 64, "nb": 0, "p": 2, "q": 2}}),
    "run-p-zero": ("bad_config", {"kind": "run", "payload": {
        "n": 64, "nb": 8, "p": 0, "q": 2}}),
    "run-unknown-schedule": ("bad_config", {"kind": "run", "payload": {
        "n": 64, "nb": 8, "p": 2, "q": 2, "schedule": "eager"}}),
    "run-depth-not-the-schedules": ("bad_config", {"kind": "run", "payload": {
        "n": 64, "nb": 8, "p": 2, "q": 2, "schedule": "classic", "depth": 2}}),
    "sim-n-negative": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "n": -1}}),
    "sim-q-zero": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "q": 0}}),
    "sim-nb-a-string": ("bad_config", {"kind": "sim", "payload": {
        **_SIM_GRID, "nb": "256"}}),
    "scale-no-nnodes": ("bad_config", {"kind": "scale", "payload": {}}),
    "scale-nnodes-a-word": ("bad_config", {"kind": "scale",
                                           "payload": {"nnodes": "x"}}),
    "fact-nb-a-word": ("bad_config", {"kind": "fact",
                                      "payload": {"nb": "big"}}),
    "reduce-mode-median": ("bad_config", {"kind": "reduce",
                                          "payload": {"mode": "median"}}),
    "reduce-no-parents": ("bad_config", {
        "kind": "reduce", "payload": {"metric": "tag"}, "depends_on": []}),
}
_BAD_SWEEPS = {
    "sweep-axes-a-list": ("malformed", {"kind": "probe", "axes": [1, 2]}),
    "sweep-base-a-number": ("malformed", {"kind": "probe", "base": 3}),
    "sweep-kind-a-list": ("malformed", {"kind": ["probe"]}),
    "sweep-over-the-cap": ("malformed", {
        "kind": "probe", "axes": {"tag": [1, 2, 3, 4]},
        "base": {"behavior": "ok"}}),
    "sweep-bad-run-corner": ("bad_config", {
        "kind": "run", "axes": {"n": [64, -1]},
        "base": {"nb": 8, "p": 2, "q": 2}}),
    "sweep-empty-axis": ("malformed", {
        "kind": "probe", "axes": {"tag": []}, "base": {"behavior": "ok"}}),
    # 10**20 points: refused from its size, never expanded.
    "sweep-never-expanded": ("malformed", {
        "kind": "probe", "base": {"behavior": "ok"},
        "axes": {f"a{i}": list(range(100)) for i in range(10)}}),
    "sweep-kind-missing": ("malformed", {"axes": {"tag": [1]}}),
    "sweep-kind-unknown": ("unknown_kind", {
        "kind": "frobnicate", "axes": {"tag": [1]}}),
    "sweep-bad-sim-corner": ("bad_config", {
        "kind": "sim", "axes": {"nb": [256, 0]}, "base": _SIM_GRID}),
}

#: The status of each typed error the tables above name; the rest 400.
_STATUS = {"unknown_kind": 422, "unknown_parent": 404}


def _submit_bodies(bad: dict, is_sweep: bool) -> dict:
    """``{route: body}`` for every submit route that can carry ``bad``.

    The bad part always comes *after* a well-formed one (second batch
    item, second campaign stage), so a route that enqueues as it goes
    leaves something behind.  A campaign stage has no ``depends_on``.
    """
    good_stage = {"name": "good", **_OK_ITEM}
    if is_sweep:
        return {
            "/v1/jobs": {"sweep": bad},
            "/v1/jobs/batch": {"sweep": bad},
            "/v1/campaigns": {"stages": [
                good_stage, {"name": "bad", "sweep": bad}]},
        }
    bodies = {
        "/v1/jobs": bad,
        "/v1/jobs/batch": {"jobs": [_OK_ITEM, bad]},
    }
    if "depends_on" not in bad:
        bodies["/v1/campaigns"] = {"stages": [
            good_stage, {"name": "bad", "after": ["good"], **bad}]}
    return bodies


def _post_json(url: str, body: dict):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=10)


class TestMalformedSubmissions:
    """One validator behind every submit route: no body is a 500."""

    @pytest.mark.parametrize("row", [*_BAD_ITEMS, *_BAD_SWEEPS])
    def test_typed_4xx_on_every_route_and_nothing_enqueued(
            self, row, idle_server, monkeypatch):
        monkeypatch.setattr("repro.service.api.MAX_BATCH_JOBS", 3)
        is_sweep = row in _BAD_SWEEPS
        code, bad = (_BAD_SWEEPS if is_sweep else _BAD_ITEMS)[row]
        client = ServiceClient(idle_server.url)
        before = client.healthz()["queue"]
        started = time.monotonic()
        for route, body in _submit_bodies(bad, is_sweep).items():
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(idle_server.url + route, body)
            error = json.loads(excinfo.value.read())["error"]
            assert (excinfo.value.code, error["code"]) == (
                _STATUS.get(code, 400), code), (route, error)
            assert client.healthz()["queue"] == before, route
        if is_sweep:  # and the same answer without HTTP in the way
            with pytest.raises(ReproError) as refused:
                idle_server.service.submit_sweep(bad)
            assert refused.value.code == code
        if row == "sweep-never-expanded":
            assert time.monotonic() - started < 1.0
        assert not idle_server.service.store.events()

    def test_a_run_depth_must_match_its_schedule(self, idle_server):
        """Refused at submit on both transports, so no worker meets it."""
        payload = {"n": 64, "nb": 8, "p": 2, "q": 2,
                   "schedule": "classic", "depth": 2}
        client = ServiceClient(idle_server.url)
        for submit in (idle_server.service.submit, client.submit):
            with pytest.raises(ConfigError, match="does not match schedule"):
                submit("run", payload)
        assert not idle_server.service.store.events()
        # a matching (legacy) depth key is accepted
        assert client.submit("run", {**payload, "depth": 0}).new

    def test_validating_a_sim_payload_imports_no_numpy(self, tmp_path):
        """Submit-time validation runs in the server: numpy there would
        more than double its resident set (28 -> 64 MB)."""
        code = ("import sys; from repro.service import Service; "
                f"Service({str(tmp_path)!r}).submit('sim', {_SIM_GRID!r}); "
                "sys.exit('numpy' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_errors_name_the_position_only_in_a_list(self, idle_server):
        client = ServiceClient(idle_server.url)
        bad = {"kind": "frobnicate", "payload": {}}
        with pytest.raises(UnknownJobKindError, match=r"^unknown job kind"):
            client.submit(**bad)
        with pytest.raises(UnknownJobKindError,
                           match=r"^jobs\[2\]: unknown job kind"):
            client.submit_many([_OK_ITEM, _OK_ITEM, bad])
        with pytest.raises(UnknownJobKindError,
                           match=r"^stage 'bad': unknown job kind"):
            client.submit_campaign(
                {"stages": [{"name": "bad", **bad}]})


#: Lease parameters no call and no route may accept: (field, value).
_BAD_LEASE_PARAMS = {
    "ttl-nan": ("ttl", float("nan")),
    "ttl-infinite": ("ttl", float("inf")),
    "n-infinite": ("n", float("inf")),
    "ttl-not-a-number": ("ttl", "abc"),
    "ttl-zero": ("ttl", 0),
    "n-zero": ("n", 0),
    "n-not-a-number": ("n", "x"),
    "ttl-negative": ("ttl", -1),
    "ttl-null": ("ttl", None),
    "ttl-a-list": ("ttl", [30]),
    "ttl-a-bool": ("ttl", True),
    "n-negative": ("n", -3),
    "n-null": ("n", None),
    "n-a-list": ("n", [2]),
    "n-nan": ("n", float("nan")),
    "n-a-fraction": ("n", "1.5"),
    "n-a-bool": ("n", True),
}


class TestMalformedLeaseParameters:
    """``Service.claim_jobs`` / ``heartbeat`` validate ``n`` and ``ttl``
    for both transports: a lease that is NaN or never expires would void
    recovery-by-lease-expiry."""

    @pytest.mark.parametrize("row", _BAD_LEASE_PARAMS)
    def test_typed_400_on_both_transports_and_nothing_leased(
            self, row, idle_server):
        field, value = _BAD_LEASE_PARAMS[row]
        service = idle_server.service
        service.submit("probe", {"behavior": "ok", "tag": "held"})
        held, _ = service.claim_jobs("holder")
        waiting = service.submit(
            "probe", {"behavior": "ok", "tag": "waiting"}).new[0]

        calls = [(service.claim_jobs, ("w",), "/v1/leases", {"worker": "w"})]
        if field == "ttl":
            calls.append((service.heartbeat, (held.id,),
                          f"/v1/leases/{held.id}/heartbeat", {}))
        for call, args, route, body in calls:
            with pytest.raises(MalformedRequestError):
                call(*args, **{field: value})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(idle_server.url + route, {**body, field: value})
            error = json.loads(excinfo.value.read())["error"]
            assert (excinfo.value.code, error["code"]) == (400, "malformed")

        assert service.store.get(waiting).state is JobState.PENDING
        assert len(service.store.active_leases()) == 1
        assert service.store.get_lease(held.id).expires == held.expires


class TestClient:
    def test_wait_timeout_raises_with_outstanding_ids(self, tmp_path):
        # No pool: the job never finishes, so wait() must time out.
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            client = ServiceClient(srv.url)
            receipt = client.submit("probe", {"behavior": "ok"})
            with pytest.raises(WaitTimeout, match="1 job"):
                client.wait(receipt.new, timeout=0.3)

    def test_service_and_client_share_one_signature_per_call(self):
        """Both backends answer the facade's calls with one signature
        each, so a consumer written against one serves the other."""
        assert Service.poll_backoff == 1.0
        assert ServiceClient.poll_backoff == 2.0
        for name in FACADE_CALLS:
            assert inspect.signature(getattr(Service, name)) == \
                inspect.signature(getattr(ServiceClient, name)), name
        for name in ("counts", "watch", "wait"):
            assert getattr(Service, name) is getattr(ServiceClient, name) \
                is getattr(ServiceFacade, name), name

    def test_envelopes_roundtrip(self, tmp_path):
        """The client returns the same typed objects local callers get."""
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            client = ServiceClient(srv.url)
            receipt = client.submit("probe", {"behavior": "ok"})
            assert isinstance(receipt, SubmitReceipt)
            view = client.job(receipt.new[0])
            assert isinstance(view, JobView)
            page = client.status(kind="probe", limit=1)
            assert isinstance(page, QueuePage)
            assert [j.id for j in page.jobs] == receipt.new

    def test_gather_many_jobs_concurrently(self, server):
        """Threads sharing one client submit at once, each on its own
        connection, and one wait gathers every job."""
        client = ServiceClient(server.url)
        receipts = [None] * 6

        def submit(i):
            receipts[i] = client.submit("probe", {"behavior": "ok", "tag": i})

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        ids = [r.new[0] for r in receipts]
        views = client.wait(ids, timeout=60)
        assert len(views) == 6
        assert all(v.state == "DONE" for v in views.values())


class TestBackoff:
    """The worker pool's idle-poll backoff (``workers._Backoff``)."""

    def test_backoff_grows_and_resets_on_progress(self):
        from repro.service.workers import _Backoff

        backoff = _Backoff(0.1, 1.0, 2.0, 0.0, random.Random(0))
        idle = [backoff.next_delay(False) for _ in range(6)]
        assert idle == pytest.approx([0.2, 0.4, 0.8, 1.0, 1.0, 1.0])
        assert backoff.next_delay(True) == pytest.approx(0.1)

    def test_jitter_spreads_delays_around_nominal(self):
        from repro.service.workers import _Backoff

        backoff = _Backoff(1.0, 8.0, 1.0, 0.5, random.Random(42))
        delays = [backoff.next_delay(True) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in delays)
        assert max(delays) > 1.25 and min(delays) < 0.75  # actually jittered


class TestEndToEnd:
    def test_serve_submit_wait_cancel_shutdown(self, tmp_path):
        """The acceptance path, over a real socket to a real process."""
        proc, url = start_serve(tmp_path / "svc", workers=2)
        try:
            with ServiceClient(url) as client:
                assert client.healthz()["ok"] is True

                # 1. a 4-point sweep, gathered by one wait
                receipt = client.submit_sweep(SIM_SWEEP)
                assert len(receipt.new) == 4
                views = client.wait(receipt.job_ids, timeout=120)
                assert all(v.state == "DONE" for v in views.values())
                assert all(v.result["score_tflops"] > 0
                           for v in views.values())

                # 2. resubmission: every point served from cache
                again = client.submit_sweep(SIM_SWEEP)
                assert len(again.cached) == 4
                assert not again.new and not again.deduped

                # 3. cancel one fresh pending job, keep another
                held = client.submit("probe", {"behavior": "sleep",
                                               "seconds": 30.0})
                kept = client.submit("probe", {"behavior": "ok"})
                # Cancel can race the resident pool's claim; accept
                # either outcome but the state must be terminal or
                # observable.
                client.cancel_job(held.new[0])
                kept_views = client.wait(kept.new, timeout=60)
                assert kept_views[kept.new[0]].state == "DONE"

                counts = client.status().counts
                assert counts["DONE"] >= 9  # 4 ran + 4 cached + 1 kept
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "server stopped" in out

    def test_cli_against_remote_server(self, tmp_path, capsys):
        """submit/status/results/cancel all drive the remote instance."""
        proc, url = start_serve(tmp_path / "svc", workers=2)
        try:
            rc = main(["submit", "--url", url, "--kind", "sim", "--sweep",
                       "-N", "512,1024", "-NB", "64", "-P", "2", "-Q", "2"])
            out = capsys.readouterr().out
            assert rc == 0 and "submitted 2 new job(s)" in out

            client = ServiceClient(url)
            ids = [j.id for j in client.status().jobs]
            client.wait(ids, timeout=120)

            rc = main(["status", "--url", url])
            out = capsys.readouterr().out
            assert rc == 0 and "2 done" in out and url in out

            rc = main(["status", "--url", url, "--state", "DONE",
                       "--limit", "1"])
            out = capsys.readouterr().out
            assert rc == 0 and "showing 1 of 2 matching" in out

            rc = main(["results", "--url", url, "--json"])
            out = capsys.readouterr().out
            assert rc == 0
            results = json.loads(out)
            assert len(results) == 2
            assert all(r["score_tflops"] > 0 for r in results.values())

            rc = main(["cancel", "--url", url, "--all"])
            out = capsys.readouterr().out
            assert rc == 0 and "nothing to cancel" in out

            rc = main(["status", "--url", url, "nosuchjob"])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err.startswith("error:")
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        assert proc.returncode == 0

    def test_queue_survives_server_restart(self, tmp_path):
        """Jobs submitted to one server are served by the next one."""
        workdir = tmp_path / "svc"
        with ServiceHTTPServer(workdir, workers=0) as srv:
            jid = ServiceClient(srv.url).submit(
                "sim", {"n": 512, "nb": 64, "p": 2, "q": 2}).new[0]
        with ServiceHTTPServer(workdir, workers=2,
                               backoff_base=0.01) as srv:
            view = ServiceClient(srv.url).wait([jid], timeout=120)[jid]
        assert view.state == "DONE"
        assert view.result["n"] == 512


class TestServiceExamples:
    """The two service examples run start to finish on the client."""

    @pytest.mark.parametrize("example, lines", [
        ("service_sweep", ["gathered 8 completed point(s)",
                           "resubmitted: 8 of 8 points served from cache"]),
        ("service_campaign", ["campaign state: done",
                              "DAG: 7 nodes, 6 dependency edges"]),
    ])
    def test_example_exits_cleanly(self, example, lines):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, os.path.join("examples", f"{example}.py")],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        assert all(line in out for line in lines), proc.stdout
