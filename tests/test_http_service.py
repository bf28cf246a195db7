"""The HTTP front-end: endpoints, error contract, clients, end-to-end.

The acceptance scenario lives in :class:`TestEndToEnd`: a real
``repro serve`` process (subprocess, own worker pool), a 4-point sweep
submitted through :class:`AsyncServiceClient`, cached/deduped
dispositions on resubmission, a cancellation, and results fetched for
the rest -- all over the socket, with a clean shutdown at the end.

Every response crosses the wire as a typed envelope (``{"receipt"}``,
``{"job"}``, the queue page, ``{"error": {"code", "message"}}``) and the
clients hand back the same dataclasses local callers get -- those
round-trips are asserted here.
"""

from __future__ import annotations

import asyncio
import http.client
import inspect
import hashlib
import io
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
    ServiceError,
    UnknownJobError,
    UnknownJobKindError,
    UnknownRouteError,
)
from repro.service import (JobState, JobView, QueuePage, Service,
                           ServiceFacade, SubmitReceipt, Sweep)
from repro.service.http import (
    AsyncServiceClient,
    ServiceClient,
    ServiceHTTPServer,
    WaitTimeout,
)

pytestmark = pytest.mark.dedicated

#: The primitive calls of ``repro.service.facade``: what a backend
#: answers itself (the derived calls are inherited from the base).
FACADE_CALLS = (
    "submit", "submit_many", "submit_sweep", "submit_campaign", "status",
    "job", "result_view", "read_result_chunk", "cancel_job", "campaign",
    "campaigns", "campaign_dag", "events", "healthz", "claim_jobs",
    "heartbeat", "complete_job", "fail_job",
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
             "length-junk", "length-negative"])
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


@pytest.fixture(params=[1, 3], ids=["1shard", "3shards"])
def idle_server(request, tmp_path):
    """No-pool servers over one shard and over three.

    The v1 error contract must be indistinguishable between them: a
    client cannot tell whether ``unknown_job``, ``lease_expired``, or
    ``conflict`` came from a plain store or crossed a ShardedStore.
    """
    with ServiceHTTPServer(tmp_path / "svc", workers=0,
                           shards=request.param) as srv:
        yield srv


class TestErrorContractAcrossShards:
    def test_healthz_reports_the_shard_count(self, idle_server):
        health = ServiceClient(idle_server.url).healthz()
        assert health["nshards"] == idle_server.service.nshards
        assert len(health["shards"]) == health["nshards"]
        assert health["degraded"] == []

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
        # Enough jobs that a 3-shard store has claims on >1 shard, so
        # the conflict genuinely round-trips through ShardedStore.
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
        # The right lease still works afterwards, on every shard.
        for jid in ids:
            assert c.complete_job(jid, lease.id, {"ok": True}).state == "DONE"


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
}


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
                422 if code == "unknown_kind" else 400, code), \
                (route, error)
            assert client.healthz()["queue"] == before, route
        if is_sweep:  # and the same answer without HTTP in the way
            with pytest.raises(ReproError) as refused:
                idle_server.service.submit_sweep(bad)
            assert refused.value.code == code
        if row == "sweep-never-expanded":
            assert time.monotonic() - started < 1.0
        assert not idle_server.service.store.events()

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
        assert sum(s["leases"] for s in service.shard_stats()) == 1
        assert service.store.get_lease(held.id).expires == held.expires


@pytest.fixture(params=[1, 3], ids=["1shard", "3shards"])
def stream_server(request, tmp_path):
    """No-pool servers with a tiny inline threshold (512 bytes).

    Any result over ~half a KB crosses the wire as chunks, so the
    streaming contract is exercised with small payloads -- and it must
    be indistinguishable between a plain store and a ShardedStore,
    whose staging areas are shard-local.
    """
    with ServiceHTTPServer(tmp_path / "svc", workers=0,
                           shards=request.param, inline_max=512) as srv:
        yield srv


def _post_chunk(url: str, jid: str, lease: str, offset: int,
                data: bytes, sha256: str | None = None):
    """Raw chunk POST, bypassing the client's own framing."""
    sha256 = sha256 or hashlib.sha256(data).hexdigest()
    request = urllib.request.Request(
        f"{url}/v1/jobs/{jid}/result/chunks"
        f"?lease={lease}&offset={offset}&sha256={sha256}",
        data=data, method="POST",
        headers={"Content-Type": "application/octet-stream"},
    )
    return urllib.request.urlopen(request, timeout=10)


class TestStreamingWireContract:
    """The chunk endpoints' v1 contract, over one shard and three."""

    BIG = {"tag": "big", "blob": "z" * 4000}      # ~4 KB encoded: streams
    SMALL = {"tag": "small", "ok": True}          # well under 512: inline

    def _completed(self, server, result, tag) -> tuple[ServiceClient, str]:
        c = ServiceClient(server.url, inline_max=512, chunk_size=256)
        jid = c.submit("probe", {"tag": tag}).new[0]
        lease, jobs = c.claim_jobs("w", n=1, ttl=30.0)
        assert [j.id for j in jobs] == [jid]
        c.complete_job(jid, lease.id, result)
        return c, jid

    def test_inline_result_envelope_is_byte_compatible(self, stream_server):
        """Sub-threshold results keep the exact pre-streaming envelope:
        {"job", "ready", "result"} and nothing else -- no ``stream``
        key ever appears on the inline path.
        """
        c, jid = self._completed(stream_server, self.SMALL, "small")
        with urllib.request.urlopen(
                stream_server.url + f"/v1/jobs/{jid}/result",
                timeout=10) as resp:
            body = json.loads(resp.read())
        assert set(body) == {"job", "ready", "result"}
        assert body["ready"] is True
        assert body["result"] == self.SMALL

    def test_streamed_and_inline_results_are_client_identical(
            self, stream_server):
        """Over-threshold results swap the inline body for a ``stream``
        descriptor on the wire, but the client view is identical in
        shape to the inline one: parity is the whole point.
        """
        c, jid = self._completed(stream_server, self.BIG, "big")
        with urllib.request.urlopen(
                stream_server.url + f"/v1/jobs/{jid}/result",
                timeout=10) as resp:
            body = json.loads(resp.read())
        assert set(body) == {"job", "ready", "result", "stream"}
        assert body["result"] is None
        encoded = json.dumps(self.BIG, sort_keys=True,
                             separators=(",", ":")).encode()
        assert body["stream"] == {
            "size": len(encoded),
            "sha256": hashlib.sha256(encoded).hexdigest(),
        }
        view = c.result(jid)
        assert view.stream is None          # resolved transparently
        assert view.ready is True
        assert view.result == self.BIG
        _, jid_small = self._completed(stream_server, self.SMALL, "small")
        assert set(view.to_dict()) == set(c.result(jid_small).to_dict())
        # The in-process backend answers the same calls the same way.
        service = stream_server.service
        assert service.result_view(jid).to_dict() == body
        for any_jid in (jid, jid_small):
            assert service.result(any_jid) == c.result(any_jid)
            local, remote = io.BytesIO(), io.BytesIO()
            assert service.download_result(any_jid, local) == \
                c.download_result(any_jid, remote)
            assert local.getvalue() == remote.getvalue()

    def test_mid_stream_lease_expiry_is_409_lease_expired(
            self, stream_server):
        c = ServiceClient(stream_server.url, inline_max=512)
        jid = c.submit("probe", {"tag": "expire-mid-stream"}).new[0]
        lease, jobs = c.claim_jobs("w", n=1, ttl=5.0)
        assert [j.id for j in jobs] == [jid]
        _post_chunk(stream_server.url, jid, lease.id, 0, b"x" * 256)
        # Force the sweep past the TTL: the half-uploaded stream's
        # lease lapses and the job is requeued under the uploader.
        stream_server.service.store.expire_leases(now=time.time() + 6.0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_chunk(stream_server.url, jid, lease.id, 256, b"y" * 256)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "lease_expired"

    def test_out_of_order_offset_is_422_bad_offset(self, stream_server):
        c = ServiceClient(stream_server.url, inline_max=512)
        jid = c.submit("probe", {"tag": "bad-offset"}).new[0]
        lease, jobs = c.claim_jobs("w", n=1, ttl=30.0)
        assert [j.id for j in jobs] == [jid]
        # No upload in flight yet: anything but offset 0 is rejected.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_chunk(stream_server.url, jid, lease.id, 512, b"x" * 64)
        assert excinfo.value.code == 422
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "bad_offset"
        # Mid-stream: a skipped offset is rejected, the prefix survives.
        _post_chunk(stream_server.url, jid, lease.id, 0, b"x" * 64)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_chunk(stream_server.url, jid, lease.id, 128, b"y" * 64)
        assert excinfo.value.code == 422
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "bad_offset"
        body = json.loads(_post_chunk(stream_server.url, jid, lease.id,
                                      64, b"y" * 64).read())
        assert body == {"job_id": jid, "received": 128}

    def test_corrupt_chunk_is_422_bad_chunk(self, stream_server):
        c = ServiceClient(stream_server.url, inline_max=512)
        jid = c.submit("probe", {"tag": "bad-chunk"}).new[0]
        lease, jobs = c.claim_jobs("w", n=1, ttl=30.0)
        assert [j.id for j in jobs] == [jid]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_chunk(stream_server.url, jid, lease.id, 0, b"flipped",
                        sha256=hashlib.sha256(b"original").hexdigest())
        assert excinfo.value.code == 422
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "bad_chunk"

    def test_chunk_routes_for_unknown_job_are_404(self, stream_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_chunk(stream_server.url, "deadbeef0000", "l", 0, b"x")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "unknown_job"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                stream_server.url
                + "/v1/jobs/deadbeef0000/result/chunks?offset=0&length=64",
                timeout=10)
        assert excinfo.value.code == 404

    def test_cli_results_output_streams_both_paths_to_file(
            self, stream_server, tmp_path):
        """`repro results --output FILE` writes one JSON object whose
        values are the exact results, whether they streamed or not.
        """
        _, jid_big = self._completed(stream_server, self.BIG, "big")
        _, jid_small = self._completed(stream_server, self.SMALL, "small")
        out = tmp_path / "results.json"
        rc = main(["results", "--url", stream_server.url,
                   "--output", str(out), jid_big, jid_small])
        assert rc == 0
        with open(out, "rb") as fh:
            written = json.load(fh)
        assert written == {jid_big: self.BIG, jid_small: self.SMALL}


class TestAsyncClient:
    def test_wait_timeout_raises_with_outstanding_ids(self, tmp_path):
        # No pool: the job never finishes, so wait() must time out.
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            async def go():
                ac = AsyncServiceClient(srv.url)
                receipt = await ac.submit("probe", {"behavior": "ok"})
                await ac.wait(receipt.new, timeout=0.3)
            with pytest.raises(WaitTimeout, match="1 job"):
                asyncio.run(go())

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

    def test_every_public_method_has_an_async_twin_with_the_same_signature(
            self):
        """The async client is generated from the sync one, so the two
        cannot drift (``status`` once lost its ``cursor`` that way)."""
        public = [name for name, _ in inspect.getmembers(
                      ServiceClient, inspect.isfunction)
                  if not name.startswith("_")]
        assert {"status", "wait", "watch", "claim_jobs"} <= set(public)
        for name in public:
            twin = getattr(AsyncServiceClient, name)
            assert inspect.signature(twin) == \
                inspect.signature(getattr(ServiceClient, name)), name
            assert inspect.iscoroutinefunction(twin) \
                or inspect.isasyncgenfunction(twin), name

    def test_service_and_client_share_one_signature_per_call(self):
        """Both backends answer the facade's calls with one signature
        each, so a consumer written against one serves the other."""
        assert Service.poll_backoff == 1.0
        assert ServiceClient.poll_backoff == 2.0
        for name in FACADE_CALLS:
            assert inspect.signature(getattr(Service, name)) == \
                inspect.signature(getattr(ServiceClient, name)), name
        for name in ("counts", "result", "download_result", "watch", "wait"):
            assert getattr(Service, name) is getattr(ServiceClient, name) \
                is getattr(ServiceFacade, name), name

    def test_async_envelopes_roundtrip(self, tmp_path):
        """Async client returns the same typed objects as the sync one."""
        with ServiceHTTPServer(tmp_path / "idle", workers=0) as srv:
            async def go():
                ac = AsyncServiceClient(srv.url)
                receipt = await ac.submit("probe", {"behavior": "ok"})
                assert isinstance(receipt, SubmitReceipt)
                view = await ac.job(receipt.new[0])
                assert isinstance(view, JobView)
                page = await ac.status(kind="probe", limit=1)
                assert isinstance(page, QueuePage)
                assert [j.id for j in page.jobs] == receipt.new
                return True
            assert asyncio.run(go()) is True

    def test_gather_many_jobs_concurrently(self, server):
        async def go():
            ac = AsyncServiceClient(server.url)
            receipts = await asyncio.gather(*[
                ac.submit("probe", {"behavior": "ok", "tag": i})
                for i in range(6)
            ])
            ids = [r.new[0] for r in receipts]
            views = await ac.wait(ids, timeout=60)
            return views
        views = asyncio.run(go())
        assert len(views) == 6
        assert all(v.state == "DONE" for v in views.values())


def _start_serve(workdir) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         "--port", "0", "--workers", "2", "--backoff", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


class TestEndToEnd:
    def test_serve_submit_wait_cancel_shutdown(self, tmp_path):
        """The acceptance path, over a real socket to a real process."""
        proc, url = _start_serve(tmp_path / "svc")
        try:
            async def scenario():
                ac = AsyncServiceClient(url)
                assert (await ac.healthz())["ok"] is True

                # 1. a 4-point sweep, gathered asynchronously
                receipt = await ac.submit_sweep(SIM_SWEEP)
                assert len(receipt.new) == 4
                views = await ac.wait(receipt.job_ids, timeout=120)
                assert all(v.state == "DONE" for v in views.values())
                assert all(v.result["score_tflops"] > 0
                           for v in views.values())

                # 2. resubmission: every point served from cache
                again = await ac.submit_sweep(SIM_SWEEP)
                assert len(again.cached) == 4
                assert not again.new and not again.deduped

                # 3. cancel one fresh pending job, keep another
                held = await ac.submit("probe", {"behavior": "sleep",
                                                 "seconds": 30.0})
                kept = await ac.submit("probe", {"behavior": "ok"})
                # Cancel can race the resident pool's claim; accept
                # either outcome but the state must be terminal or
                # observable.
                await ac.cancel_job(held.new[0])
                kept_views = await ac.wait(kept.new, timeout=60)
                assert kept_views[kept.new[0]].state == "DONE"

                counts = (await ac.status()).counts
                assert counts["DONE"] >= 9  # 4 ran + 4 cached + 1 kept
                return True

            assert asyncio.run(scenario()) is True
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "server stopped" in out

    def test_cli_against_remote_server(self, tmp_path, capsys):
        """submit/status/results/cancel all drive the remote instance."""
        proc, url = _start_serve(tmp_path / "svc")
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
