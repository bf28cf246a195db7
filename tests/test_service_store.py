"""Job store: claims, transitions, persistence, and a wedged store."""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import sqlite3
import time
import urllib.request

import pytest

from repro.cli import main
from repro.errors import ConfigError, StoreUnavailableError, UnknownJobError
from repro.service import Job, JobState, JobStore, Service
from repro.service.cache import payload_key
from repro.service.http import ServiceClient, ServiceHTTPServer

from .conftest import CommitSpy, Killed, claim_one


def _job(i: int, **kwargs) -> Job:
    payload = {"behavior": "ok", "i": i}
    return Job(
        id=f"job-{i:04d}", kind="probe", payload=payload,
        key=payload_key("probe", payload), created=float(i), **kwargs,
    )


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "svc")


class TestBasics:
    def test_add_get_round_trip(self, store):
        job = _job(1, timeout=2.5, max_retries=7)
        store.add(job)
        got = store.get("job-0001")
        assert got.payload == {"behavior": "ok", "i": 1}
        assert got.state is JobState.PENDING
        assert got.timeout == 2.5
        assert got.max_retries == 7

    def test_get_unknown_id_raises(self, store):
        with pytest.raises(UnknownJobError):
            store.get("nope")

    def test_counts_cover_every_state(self, store):
        store.add(_job(1))
        counts = store.counts()
        assert counts["PENDING"] == 1
        assert set(counts) == {s.value for s in JobState}


class TestClaim:
    def test_claim_oldest_first_and_marks_running(self, store):
        store.add(_job(2))
        store.add(_job(1))
        job = claim_one(store)
        assert job.id == "job-0001"  # created earlier
        assert job.state is JobState.RUNNING
        assert job.attempts == 1
        assert job.worker == "w0"
        assert store.get("job-0001").state is JobState.RUNNING

    def test_claim_skips_jobs_in_backoff(self, store):
        store.add(_job(1, not_before=1e12))  # far future
        assert claim_one(store) is None

    def test_claim_empty_queue_returns_none(self, store):
        assert claim_one(store) is None

    def test_running_jobs_are_not_reclaimed(self, store):
        store.add(_job(1))
        assert claim_one(store) is not None
        assert claim_one(store, "w1") is None


class TestTransitions:
    def test_done_records_result_key(self, store):
        store.add(_job(1))
        job = claim_one(store)
        done = store.complete_leased(job.id, job.lease_id, "abc123")
        assert done.state is JobState.DONE
        assert done.result_key == "abc123"

    def test_requeue_returns_job_to_pending_with_backoff(self, store):
        store.add(_job(1))
        job = claim_one(store)
        back = store.fail_leased(job.id, job.lease_id, "boom",
                                 backoff_base=1e9)
        assert back.state is JobState.PENDING
        assert back.error == "boom"
        assert claim_one(store, "w1") is None  # still backing off

    def test_cancel_only_hits_pending(self, store):
        store.add(_job(1))
        store.add(_job(2))
        claim_one(store)  # job-0001 now RUNNING
        assert store.cancel("job-0001") is False
        assert store.cancel("job-0002") is True
        assert store.get("job-0002").state is JobState.CANCELLED


class TestPersistence:
    def test_queue_survives_restart(self, store, tmp_path):
        """A fresh JobStore on the same workdir sees identical state."""
        store.add(_job(1))
        store.add(_job(2))
        job = claim_one(store)
        store.complete_leased(job.id, job.lease_id, "k1")
        store.close()

        reopened = JobStore(tmp_path / "svc")  # the simulated restart
        assert reopened.get("job-0001").state is JobState.DONE
        assert reopened.get("job-0001").result_key == "k1"
        assert reopened.get("job-0002").state is JobState.PENDING
        # the restarted store can keep going where the old one stopped
        assert claim_one(reopened).id == "job-0002"

    def test_event_log_records_the_lifecycle(self, store):
        store.add(_job(1))
        job = claim_one(store)
        store.complete_leased(job.id, job.lease_id, "k1")
        events = [e["event"] for e in store.events()
                  if e["job"] == "job-0001"]
        assert events == ["submitted", "claimed", "done"]


def _queued(store, *jobs) -> None:
    for job in jobs:
        store.add(job)


def _leased(store, **job) -> Job:
    store.add(_job(1, **job))
    return claim_one(store)


def _expired(store) -> None:
    store.add(_job(1))
    store.claim_batch("w0", ttl=1.0, now=time.time() - 10.0)


#: Each transition: ``(setup, transition, events)``.  ``setup(store)``
#: builds the rows it needs; every row the transition moves to a new
#: state must then carry exactly ``events``.
TRANSITIONS = {
    "add_batch": (
        lambda store: None,
        lambda store, _: store.add_batch([(_job(1), False),
                                          (_job(2), False)]),
        ["submitted"]),
    "claim_batch_shipped": (
        lambda store: _queued(store, _job(1), _job(2)),
        lambda store, _: store.claim_batch("w0", limit=5,
                                           cached=lambda job: False),
        ["claimed", "launched"]),
    "claim_batch_cached": (
        lambda store: _queued(store, _job(1), _job(2)),
        lambda store, _: store.claim_batch("w0", limit=5,
                                           cached=lambda job: True),
        ["claimed", "done"]),
    "complete_leased": (
        _leased,
        lambda store, job: store.complete_leased(job.id, job.lease_id, "k"),
        ["done"]),
    "fail_leased_requeue": (
        lambda store: _leased(store, max_retries=1),
        lambda store, job: store.fail_leased(job.id, job.lease_id, "boom"),
        ["requeued"]),
    "fail_leased_final": (
        lambda store: _leased(store, max_retries=0),
        lambda store, job: store.fail_leased(job.id, job.lease_id, "boom"),
        ["failed"]),
    "cancel": (
        lambda store: _queued(store, _job(1)),
        lambda store, _: store.cancel("job-0001"),
        ["cancelled"]),
    "release": (
        lambda store: _queued(store, _job(1, state=JobState.BLOCKED)),
        lambda store, _: store.release("job-0001"),
        ["released"]),
    "cancel_from_parent": (
        lambda store: _queued(store, _job(1, state=JobState.BLOCKED)),
        lambda store, _: store.cancel_from_parent("job-0001", "job-0000"),
        ["parent_failed"]),
    "expire_leases": (
        _expired,
        lambda store, _: store.expire_leases(),
        ["lease_expired"]),
}


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_a_kill_right_after_commit_keeps_every_event(store, monkeypatch,
                                                     name):
    """A row and its events commit together: nothing a transition wrote
    waits for a step after its COMMIT."""
    setup, transition, expected = TRANSITIONS[name]
    held = setup(store)
    states = {job.id: job.state for job in store.list()}
    logged = len(store.events())
    CommitSpy(monkeypatch).kill = True
    with pytest.raises(Killed):
        transition(store, held)
    monkeypatch.undo()
    moved = {job.id for job in store.list()
             if states.get(job.id) != job.state}
    new = store.events()[logged:]
    assert moved and {e["job"] for e in new} == moved
    for job_id in moved:
        assert [e["event"] for e in new if e["job"] == job_id] == expected


#: The facade calls that read or write the queue, each of which must be
#: a typed 503 -- never an empty answer -- while the store is wedged.
#: ``ctx`` holds the fixture's job ids (``ids[0]`` is leased), the
#: lease, a campaign id and a feed cursor minted before the wedge.
WEDGED_CALLS = {
    "status": lambda backend, ctx: backend.status(),
    "status_page": lambda backend, ctx: backend.status(
        state="PENDING", limit=1),
    "job": lambda backend, ctx: backend.job(ctx["ids"][1]),
    "result": lambda backend, ctx: backend.result(ctx["ids"][1]),
    "submit": lambda backend, ctx: backend.submit(
        "probe", {"behavior": "ok", "tag": "new"}),
    "submit_many": lambda backend, ctx: backend.submit_many([
        {"kind": "probe", "payload": {"behavior": "ok", "tag": t}}
        for t in ("new-1", "new-2")]),
    "submit_sweep": lambda backend, ctx: backend.submit_sweep({
        "kind": "probe", "axes": {"tag": ["sw-1", "sw-2"]},
        "base": {"behavior": "ok"}}),
    "submit_campaign": lambda backend, ctx: backend.submit_campaign({
        "stages": [{"name": "one", "kind": "probe",
                    "payload": {"behavior": "ok", "tag": "camp-new"}}]}),
    "claim_jobs": lambda backend, ctx: backend.claim_jobs("w", n=3),
    "heartbeat": lambda backend, ctx: backend.heartbeat(ctx["lease"]),
    "complete_job": lambda backend, ctx: backend.complete_job(
        ctx["ids"][0], ctx["lease"], {"ok": True}),
    "fail_job": lambda backend, ctx: backend.fail_job(
        ctx["ids"][0], ctx["lease"], "boom"),
    "cancel_job": lambda backend, ctx: backend.cancel_job(ctx["ids"][1]),
    # ``begin`` under a job filter asks the store where the job's
    # history starts.
    "events": lambda backend, ctx: backend.events(job_ids=[ctx["ids"][1]]),
    "events_begin": lambda backend, ctx: backend.events(cursor="begin"),
    "events_token": lambda backend, ctx: backend.events(
        cursor=ctx["cursor"]),
    "campaign": lambda backend, ctx: backend.campaign(ctx["campaign"]),
    "campaign_dag": lambda backend, ctx: backend.campaign_dag(
        ctx["campaign"]),
    "campaigns": lambda backend, ctx: backend.campaigns(),
}


class TestWedgedStore:
    """Another connection holds ``BEGIN EXCLUSIVE`` past the busy
    timeout: every call says so, in process and over HTTP, changes
    nothing, and works again once the lock is gone."""

    @pytest.fixture
    def wedged(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               busy_timeout=0.05) as srv:
            service = srv.service
            ids = [service.submit("probe", {"behavior": "ok",
                                            "tag": i}).new[0]
                   for i in range(3)]
            lease, claimed = service.claim_jobs("holder", n=1)
            assert [j.id for j in claimed] == ids[:1]
            campaign = service.submit_campaign({"stages": [
                {"name": "one", "kind": "probe",
                 "payload": {"behavior": "ok", "tag": "camp"}}]})
            _, cursor, _ = service.events(cursor="begin", limit=2)
            ctx = {"ids": ids, "lease": lease.id, "campaign": campaign.id,
                   "cursor": cursor}
            blocker = sqlite3.connect(service.store.db_path)
            blocker.isolation_level = None
            blocker.execute("BEGIN EXCLUSIVE")
            try:
                yield srv, ctx, blocker
            finally:
                if blocker.in_transaction:
                    blocker.execute("ROLLBACK")
                blocker.close()

    @pytest.mark.parametrize("transport", ["in_process", "http"])
    @pytest.mark.parametrize("call", sorted(WEDGED_CALLS))
    def test_call_is_503_then_recovers(self, wedged, call, transport):
        srv, ctx, blocker = wedged
        backend = (srv.service if transport == "in_process"
                   else ServiceClient(srv.url, retry_429=0))
        with pytest.raises(StoreUnavailableError) as excinfo:
            WEDGED_CALLS[call](backend, ctx)
        assert (excinfo.value.code, excinfo.value.http_status) == \
            ("store_unavailable", 503)
        blocker.execute("ROLLBACK")
        states = {j.id: j.state for j in srv.service.status().jobs}
        assert {jid: states[jid] for jid in ctx["ids"]} == {
            ctx["ids"][0]: "RUNNING", ctx["ids"][1]: "PENDING",
            ctx["ids"][2]: "PENDING"}
        assert len(states) == 4  # and nothing was enqueued
        WEDGED_CALLS[call](backend, ctx)

    def test_healthz_stays_a_200_that_says_so(self, wedged):
        srv, _, blocker = wedged
        with urllib.request.urlopen(srv.url + "/v1/healthz",
                                    timeout=30) as resp:
            assert resp.status == 200
            health = json.loads(resp.read())
        assert health["ok"] is False and "unavailable" in health["error"]
        assert health["queue"] is None
        assert srv.service.healthz()["ok"] is False
        blocker.execute("ROLLBACK")
        health = ServiceClient(srv.url).healthz()
        assert health["ok"] is True and health["queue"]["PENDING"] == 3


def _sharded(root):
    JobStore(root / "shards" / "00").add(_job(1))


def _jsonl_era(root):
    """A ``jobs`` table without the ``events`` table, its log beside it."""
    JobStore(root).add(_job(1))
    with sqlite3.connect(root / "jobs.sqlite") as conn:
        conn.execute("DROP TABLE events")
    conn.close()
    (root / "events.jsonl").write_text(
        '{"event": "submitted", "job": "job-0001", "pid": 1, "t": 1.0}\n')


def _no_events_from(root):
    JobStore(root).add(_job(1))
    with sqlite3.connect(root / "jobs.sqlite") as conn:
        conn.execute("ALTER TABLE jobs DROP COLUMN events_from")
    conn.close()


#: Workdirs an earlier release wrote, which this one refuses.
EARLIER_LAYOUTS = {"sharded": _sharded, "jsonl_era": _jsonl_era,
                   "no_events_from": _no_events_from}


def _digests(root) -> dict:
    return {str(path.relative_to(root)): hashlib.sha256(
                path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(params=sorted(EARLIER_LAYOUTS))
def earlier(request, tmp_path):
    """A workdir in an earlier layout; checks it is left byte for byte
    as it was, with no file added."""
    root = tmp_path / "svc"
    root.mkdir()
    EARLIER_LAYOUTS[request.param](root)
    before = _digests(root)
    yield root
    assert _digests(root) == before


def test_earlier_workdir_is_refused_not_served(earlier, capsys):
    with pytest.raises(ConfigError, match="release that wrote it"):
        Service(earlier)
    assert main(["serve", "--workdir", str(earlier), "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["submit", "--kind", "sim"], ["workers", "-n", "1"], ["status"],
    ["results"], ["cancel", "--all"], ["campaign", "list"],
    ["campaign", "status", "abc123"],
], ids=" ".join)
def test_every_local_command_refuses_an_earlier_workdir(earlier, capsys,
                                                        argv):
    """Each command that opens the workdir itself says why, in one
    line, and exits 2."""
    assert main([*argv, "--workdir", str(earlier)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "release that wrote it" in err
    assert err.count("\n") == 1


def test_alter_ordered_columns_are_this_layout(tmp_path):
    """Columns an ALTER appended sit last in ``PRAGMA table_info``; the
    layout compares names, so such a workdir opens and drains."""
    root = tmp_path / "svc"
    JobStore(root).add(_job(1))
    with sqlite3.connect(root / "jobs.sqlite") as conn:
        for column, ddl in [("lease_id", "TEXT NOT NULL DEFAULT ''"),
                            ("lease_expires", "REAL NOT NULL DEFAULT 0"),
                            ("depends_on", "TEXT NOT NULL DEFAULT '[]'")]:
            conn.execute(f"ALTER TABLE jobs DROP COLUMN {column}")
            conn.execute(f"ALTER TABLE jobs ADD COLUMN {column} {ddl}")
        columns = [row[1] for row in conn.execute("PRAGMA table_info(jobs)")]
    conn.close()
    assert columns[-3:] == ["lease_id", "lease_expires", "depends_on"]
    service = Service(root)
    jid = service.submit("probe", {"behavior": "ok", "i": 2}).new[0]
    assert service.run_workers(n=1, max_seconds=60).completed == 2
    assert {service.job(j).state for j in ("job-0001", jid)} == {"DONE"}


def _open_with_pauses(root, start) -> None:
    """Open ``root`` once ``start`` releases, pausing after every commit
    as a preempted process would."""
    transaction = JobStore._transaction

    @contextlib.contextmanager
    def paused(self, *args):
        with transaction(self, *args) as tx:
            yield tx
        time.sleep(0.05)

    JobStore._transaction = paused
    start.wait()
    JobStore(root)


def _schema(root) -> list:
    conn = sqlite3.connect(root / "jobs.sqlite")
    try:
        return conn.execute("SELECT type, name, sql FROM sqlite_master"
                            " ORDER BY name").fetchall()
    finally:
        conn.close()


def test_processes_opening_one_fresh_workdir_at_once_all_succeed(tmp_path):
    """The layout check and the CREATEs share one transaction: were they
    two, another process could check between them -- see no ``jobs``
    table and fail creating it, or see ``jobs`` without ``events`` and
    be refused."""
    ctx = multiprocessing.get_context("fork")
    reference = tmp_path / "reference"
    JobStore(reference)
    for attempt in range(3):
        root = tmp_path / f"svc{attempt}"
        root.mkdir()
        start = ctx.Barrier(4)
        children = [ctx.Process(target=_open_with_pauses, args=(root, start))
                    for _ in range(4)]
        for child in children:
            child.start()
        for child in children:
            child.join(60)
        assert [child.exitcode for child in children] == [0] * 4
        assert _schema(root) == _schema(reference)


def test_an_unopenable_store_is_a_one_line_cli_error(tmp_path, capsys):
    """SQLite cannot open the queue file (here: it is a directory), so
    the command fails in one line instead of listing an empty queue."""
    root = tmp_path / "svc"
    (root / "jobs.sqlite").mkdir(parents=True)
    argv = ["status", "--workdir", str(root)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: job store is unavailable")
    assert err.count("\n") == 1
    (root / "jobs.sqlite").rmdir()
    assert main(argv) == 0
