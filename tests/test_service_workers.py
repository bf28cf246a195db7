"""Worker pool: crash isolation, timeouts, and bounded retry.

There is one supervisor (:class:`WorkerPool`) and two transports, so
every worker-behaviour case runs twice: the classes below drain the
queue through the in-process transport (``Service.run_workers``), and
each ``...OverHTTP`` subclass re-runs the same cases with the pool
leasing from a ``ServiceHTTPServer`` on the same workdir through a
:class:`ServiceClient`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sqlite3
import threading
import time

import pytest

from repro.config import canonical_json
from repro.errors import ResultTooLargeError, ServiceError
from repro.service import (
    Job,
    JobState,
    Service,
    Sweep,
    WorkerOptions,
    WorkerPool,
    new_job_id,
    payload_key,
    register_runner,
)
from repro.service import workers
from repro.service.api import MAX_RESULT_BYTES
from repro.service.http import ServiceClient, ServiceHTTPServer
from repro.service.workers import (
    RUNNERS,
    _child_main,
    default_worker_name,
    runner_for,
)

from .conftest import CommitSpy


@pytest.fixture
def service(tmp_path):
    # Tiny backoff keeps retry tests fast without changing the logic.
    return Service(tmp_path / "svc", backoff_base=0.01)


@pytest.fixture
def pool(request, service):
    """``pool(n=...)``: a :class:`WorkerPool` on the class's transport."""
    if getattr(request.cls, "transport", "inproc") == "inproc":
        yield lambda **options: service.worker_pool(
            WorkerOptions(max_seconds=60, **options))
        return
    with ServiceHTTPServer(service.workdir, workers=0,
                           backoff_base=0.01) as srv:
        # A short TTL caps the idle backoff (ttl / 4) so retry waits
        # stay short over HTTP too.
        yield lambda **options: WorkerPool(
            ServiceClient(srv.url),
            WorkerOptions(max_seconds=60, lease_ttl=2.0, **options),
        )


@pytest.fixture
def backend(request, service):
    """The class's transport as a facade: ``service`` itself, or a
    client of a server on its workdir."""
    if getattr(request.cls, "transport", "inproc") == "inproc":
        yield service
        return
    with ServiceHTTPServer(service.workdir, workers=0) as srv, \
            ServiceClient(srv.url) as client:
        yield client


@pytest.fixture
def drain(pool):
    """``drain(n=...)``: one pool run over the test class's transport."""
    return lambda **options: pool(**options).run()


class TestHappyPath:
    def test_ok_probe_completes(self, service, drain):
        receipt = service.submit("probe", {"behavior": "ok"})
        summary = drain(n=1)
        assert summary.claimed == 1 and summary.completed == 1
        assert summary.failed == 0 and summary.lost == 0
        assert summary.counts["DONE"] == 1
        job = service.store.get(receipt.new[0])
        assert job.state is JobState.DONE
        assert job.worker == default_worker_name()  # this process's pool
        assert service.result(job.id).result["ok"] is True
        kinds = [e["event"] for e in service.store.events()
                 if e["job"] == job.id]
        assert kinds == ["submitted", "claimed", "launched", "done"]

    def test_real_job_kinds_produce_results(self, service, drain):
        receipt = service.submit(
            "run", {"n": 32, "nb": 8, "p": 2, "q": 2}
        )
        drain(n=1)
        result = service.result(receipt.new[0]).result
        assert result["passed"] is True
        assert result["resid"] < 16.0


class TestCrashIsolation:
    def test_always_crashing_job_retries_then_fails(self, service, drain):
        """Acceptance: a crash ends FAILED with its error recorded."""
        receipt = service.submit(
            "probe", {"behavior": "crash", "message": "kaboom"},
            max_retries=1,
        )
        summary = drain(n=1)
        assert summary.retried == 1 and summary.failed == 1
        job = service.store.get(receipt.new[0])
        assert job.state is JobState.FAILED
        assert job.attempts == 2  # first try + one retry
        assert "kaboom" in job.error
        assert "RuntimeError" in job.error  # captured traceback

    def test_flaky_job_succeeds_on_retry(self, service, drain):
        receipt = service.submit(
            "probe", {"behavior": "flaky", "fail_times": 1}, max_retries=2
        )
        summary = drain(n=1)
        assert summary.completed == 1 and summary.retried == 1
        job = service.store.get(receipt.new[0])
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert service.result(job.id).result["attempt"] == 2
        # The coordinator owns the backoff: the requeue carried one.
        requeued = [e for e in service.store.events()
                    if e["job"] == job.id and e["event"] == "requeued"]
        assert len(requeued) == 1


class TestTimeouts:
    def test_timeout_attempts_respect_the_retry_budget(self, service, drain):
        receipt = service.submit(
            "probe", {"behavior": "sleep", "seconds": 30.0},
            timeout=0.2, max_retries=1,
        )
        drain(n=1)
        job = service.store.get(receipt.new[0])
        assert job.state is JobState.FAILED
        assert job.attempts == 2


class TestClaimTimeCacheFulfilment:
    def test_a_job_takes_three_commits(self, service, backend,
                                       monkeypatch):
        """Submit, claim and complete commit once each; the claim's one
        commit writes ``claimed`` and ``launched`` together."""
        spy = CommitSpy(monkeypatch)
        jid = backend.submit("probe", {"behavior": "ok"}).new[0]
        assert spy.commits == 1
        lease, (job,) = backend.claim_jobs("w", n=1)
        assert spy.commits == 2
        kinds = [e["event"] for e in service.store.events()]
        assert kinds == ["submitted", "claimed", "launched"]
        backend.complete_job(jid, lease.id, {"ok": True})
        assert spy.commits == 3
        assert [e["event"] for e in service.store.events()] == \
            ["submitted", "claimed", "launched", "done"]

    def test_queued_job_whose_result_landed_is_not_launched(
            self, service, drain, monkeypatch):
        """A claimed job with a cached result is marked DONE without
        burning a child process (closes the submit-vs-complete race)."""
        payload = {"n": 256, "nb": 32, "p": 2, "q": 2}
        first = service.submit("sim", payload)
        drain(n=1)
        assert service.result(first.new[0]).result is not None

        # Force a PENDING twin past the submit-time cache check (as a
        # racing submitter would have) by adding the row directly.
        key = payload_key("sim", payload)
        twin = Job(id=new_job_id(), kind="sim", payload=payload, key=key)
        service.store.add(twin)

        spy = CommitSpy(monkeypatch)
        summary = drain(n=1)
        assert spy.commits == 1  # the claim completes it: no 2nd commit
        assert summary.claimed == 0  # fulfilled coordinator-side
        job = service.store.get(twin.id)
        assert job.state is JobState.DONE
        assert service.result(twin.id).result is not None
        kinds = [e["event"] for e in service.store.events()
                 if e["job"] == twin.id]
        assert kinds == ["submitted", "claimed", "done"]


class TestParentLookup:
    def test_reduce_and_winner_read_parents_through_the_transport(
            self, service, drain):
        grid = service.submit_sweep(
            Sweep(kind="probe", axes={"tag": [1, 5, 3]},
                  base={"behavior": "echo"})).new
        pick = service.submit("reduce", {"metric": "tag", "mode": "max"},
                              depends_on=grid).new[0]
        study = service.submit(
            "probe", {"behavior": "echo", "tag": {"$winner": "tag"}, "x": 7},
            depends_on=[pick]).new[0]
        summary = drain(n=2)
        assert summary.counts["DONE"] == 5 and summary.failed == 0
        assert service.result(pick).result["winner_payload"]["tag"] == 5
        assert service.result(study).result == {"tag": 5, "x": 7}


#: A result larger than the OS pipe buffer: the child blocks in ``send``
#: until the supervisor drains the ready pipe of a live child.  It is
#: the largest result the service accepts (``{"blob": _BLOB}`` encodes
#: to exactly ``MAX_RESULT_BYTES``).
_BLOB = "x" * (MAX_RESULT_BYTES - len('{"blob":""}'))


def _ok(tag: int) -> dict:
    """Results are stored by content key: one payload per ``ok`` job."""
    return {"behavior": "ok", "tag": tag}


#: One n=1 pool runs these in order.  (payload, submit options,
#: terminal state, text the recorded error must contain)
_LIFECYCLE = [
    (_ok(0), {}, "DONE", ""),
    ({"behavior": "crash", "message": "kaboom"}, {},
     "FAILED", "RuntimeError: kaboom"),
    (_ok(1), {}, "DONE", ""),
    ({"behavior": "sleep", "seconds": 30.0}, {"timeout": 0.3},
     "FAILED", "timeout: exceeded 0.3s"),
    (_ok(2), {}, "DONE", ""),
    ({"behavior": "exit", "code": 3}, {},
     "FAILED", "worker child crashed (exit code 3)"),
    (_ok(3), {}, "DONE", ""),
    ({"behavior": "echo", "blob": _BLOB}, {}, "DONE", ""),
    (_ok(4), {}, "DONE", ""),
]


class TestChildLifecycle:
    def test_a_child_is_reused_after_success_and_only_then(self, service,
                                                           drain):
        """The pool's contract in one table: an exception, a timeout
        and a hard exit each fail only their own attempt, the pool keeps
        draining, and the next job runs in a new process; successes
        (however large the result) leave the child warm for the next."""
        ids = [service.submit("probe", payload, max_retries=0,
                              **options).new[0]
               for payload, options, _state, _error in _LIFECYCLE]
        started = time.monotonic()
        summary = drain(n=1)
        assert time.monotonic() - started < 30.0  # nothing wedged
        pids = []
        for jid, (payload, _options, state, error) in zip(ids, _LIFECYCLE):
            job = service.store.get(jid)
            assert job.state.value == state
            assert error in job.error
            if payload["behavior"] == "ok":
                pids.append(service.result(jid).result["pid"])
            elif state == "DONE":
                assert service.result(jid).result == {"blob": _BLOB}
        first, after_crash, after_timeout, after_exit, after_blob = pids
        assert len({first, after_crash, after_timeout, after_exit}) == 4
        assert after_blob == after_exit
        assert os.getpid() not in pids
        assert summary.spawned == 4
        assert (summary.completed, summary.failed) == (6, 3)
        assert summary.retried == 0 and summary.lost == 0

    def test_a_child_is_retired_after_its_job_bound(self, service, drain,
                                                    monkeypatch):
        monkeypatch.setattr(workers, "MAX_JOBS_PER_CHILD", 3)
        ids = [service.submit("probe", _ok(i)).new[0] for i in range(7)]
        summary = drain(n=1)
        assert summary.completed == 7 and summary.spawned == 3
        pids = [service.result(jid).result["pid"] for jid in ids]
        assert [pids.count(pid) for pid in dict.fromkeys(pids)] == [3, 3, 1]

    def test_a_runner_registered_after_a_child_is_warm_is_found(
            self, service, pool):
        """A resident child holds the registry it was forked with, so a
        registration retires the idle children instead of letting them
        answer "unknown kind" (or run the function that was replaced)."""
        stop, summaries = threading.Event(), []
        resident = pool(n=1, drain=False)
        thread = threading.Thread(
            target=lambda: summaries.append(resident.run(stop)))
        thread.start()
        try:
            warm = service.submit("probe", _ok(0)).new[0]
            assert service.wait([warm], timeout=30)[warm].state == "DONE"
            for version in (1, 2):  # a new kind, then a replaced one
                register_runner(
                    "late", lambda payload, job, v=version: {"version": v})
                jid = service.submit("late", {"n": version}).new[0]
                view = service.wait([jid], timeout=30)[jid]
                assert (view.state, view.result) == (
                    "DONE", {"version": version})
        finally:
            stop.set()
            thread.join(30)
            RUNNERS.pop("late", None)
        assert not thread.is_alive()
        assert summaries[0].spawned == 3  # one, plus one per registration


@contextlib.contextmanager
def _resident(pool):
    """Run a ``drain=False`` pool on a thread for the ``with`` body."""
    stop = threading.Event()
    thread = threading.Thread(target=pool.run, args=(stop,))
    thread.start()
    try:
        yield pool
    finally:
        stop.set()
        pool.wake()  # do not sit out the idle tick
        thread.join(30)
    assert not thread.is_alive()


#: Far longer than any bound below: whatever finishes in time was not
#: found by the idle tick.
_SLOW_TICK = {"drain": False, "poll_interval": 5.0}


class TestResultSizeLimit:
    """Every result travels inline: one whose canonical encoding is over
    ``MAX_RESULT_BYTES`` is a typed, non-transient failure of its
    attempt -- never a retry loop, a lost report or a cache entry."""

    @staticmethod
    def _echo(service, size: int, **options) -> tuple[str, dict]:
        """A probe echo whose result encodes to ``size`` bytes."""
        result = {"blob": ""}
        result["blob"] = "x" * (size - len(canonical_json(result)))
        return service.submit("probe", {"behavior": "echo", **result},
                              **options).new[0], result

    def test_oversized_result_fails_every_attempt_typed(
            self, service, drain, monkeypatch):
        reports = []
        complete = Service.complete_job

        def counted(self, *args):
            reports.append(args[0])
            return complete(self, *args)

        monkeypatch.setattr(Service, "complete_job", counted)
        jid, _ = self._echo(service, MAX_RESULT_BYTES + 1, max_retries=1)
        summary = drain(n=1)
        assert reports == [jid, jid]  # one per attempt, none retried
        assert summary.lost == 0 and summary.completed == 0
        assert summary.retried == 1 and summary.failed == 1
        job = service.store.get(jid)
        assert job.state is JobState.FAILED and job.attempts == 2
        assert job.error == (f"result of {MAX_RESULT_BYTES + 1} bytes"
                             f" exceeds the {MAX_RESULT_BYTES}-byte limit")
        kinds = [e["event"] for e in service.store.events()
                 if e["job"] == jid]
        assert kinds == ["submitted", "claimed", "launched", "requeued",
                         "claimed", "launched", "failed"]
        assert job.key not in service.cache

    def test_result_one_byte_under_the_limit_round_trips(
            self, service, drain, backend):
        jid, result = self._echo(service, MAX_RESULT_BYTES - 1)
        summary = drain(n=1)
        assert summary.completed == 1 and summary.lost == 0
        view = backend.result(jid)
        assert view.ready and view.state == "DONE"
        assert canonical_json(view.result) == canonical_json(result)
        assert len(canonical_json(view.result)) == MAX_RESULT_BYTES - 1

    def test_a_refused_result_stores_nothing_and_keeps_the_lease(
            self, service, backend):
        jid = backend.submit("probe", {"behavior": "ok"}).new[0]
        lease, jobs = backend.claim_jobs("w", n=1, ttl=30.0)
        assert [j.id for j in jobs] == [jid]
        with pytest.raises(ResultTooLargeError, match="exceeds"):
            backend.complete_job(jid, lease.id,
                                 {"blob": "x" * MAX_RESULT_BYTES})
        job = service.store.get(jid)
        assert job.state is JobState.RUNNING and job.key not in service.cache
        assert backend.heartbeat(lease.id).id == lease.id
        assert backend.complete_job(jid, lease.id, {"ok": 1}).state == "DONE"
        assert backend.result(jid).result == {"ok": 1}

    def test_the_limit_counts_encoded_bytes_not_characters(
            self, service, backend):
        """A non-ASCII character is six bytes (``\\u00e9``) of the
        canonical encoding the limit is measured on."""
        jid = backend.submit("probe", {"behavior": "ok"}).new[0]
        lease, _ = backend.claim_jobs("w", n=1, ttl=30.0)
        wide = {"s": "\u00e9" * (MAX_RESULT_BYTES // 6)}
        size = len(canonical_json(wide))
        assert len(wide["s"]) < MAX_RESULT_BYTES < size
        with pytest.raises(ResultTooLargeError) as excinfo:
            backend.complete_job(jid, lease.id, wide)
        assert str(excinfo.value) == (
            f"result of {size} bytes exceeds the"
            f" {MAX_RESULT_BYTES}-byte limit")
        assert service.store.get(jid).state is JobState.RUNNING

    def test_a_result_at_the_limit_completes_whatever_its_shape(
            self, service, backend):
        """Half a million list items: the request body re-encodes each
        separator with a space, and must still fit the body cap."""
        jid = backend.submit("probe", {"behavior": "ok"}).new[0]
        lease, _ = backend.claim_jobs("w", n=1, ttl=30.0)
        dense = {"pad": "", "v": [0] * (MAX_RESULT_BYTES // 2 - 64)}
        dense["pad"] = "p" * (MAX_RESULT_BYTES - len(canonical_json(dense)))
        assert len(canonical_json(dense)) == MAX_RESULT_BYTES
        assert backend.complete_job(jid, lease.id, dense).state == "DONE"
        assert backend.result(jid).result == dense


class TestEventDrivenPool:
    def test_a_child_is_reaped_when_it_answers(self, service, pool):
        """Pipe-wait: three queued jobs on one slot, back to back."""
        ids = [service.submit("probe", _ok(i)).new[0] for i in range(3)]
        started = time.monotonic()
        with _resident(pool(n=1, **_SLOW_TICK)):
            views = service.wait(ids, timeout=30)
        assert time.monotonic() - started < 2.0
        assert [views[jid].state for jid in ids] == ["DONE"] * 3


class TestEventDrivenPoolOverHTTP(TestEventDrivenPool):
    transport = "http"


class TestWakeOnSubmit:
    """In process only: a ``ServiceClient`` offers no wake source."""

    @pytest.mark.parametrize("how", ["submitted", "released"])
    def test_an_idle_pool_wakes_for_a_claimable_job(self, service, pool,
                                                    how):
        if how == "released":
            # A parent held by another pool; its completion is what
            # releases (and must announce) the child.
            parent = service.submit("probe", _ok(0)).new[0]
            lease, _jobs = service.claim_jobs("elsewhere", n=1)
            child = service.submit("probe", _ok(1),
                                   depends_on=[parent]).new[0]
        with _resident(pool(n=1, **_SLOW_TICK)):
            time.sleep(0.3)  # idle: 4.7 s of tick to go
            started = time.monotonic()
            if how == "released":
                service.complete_job(parent, lease.id, {"ok": True})
                jid = child
            else:
                jid = service.submit("probe", _ok(2)).new[0]
            view = service.wait([jid], timeout=30)[jid]
            assert time.monotonic() - started < 1.0
        assert view.state == "DONE"
        kinds = [e["event"] for e in service.store.events()
                 if e["job"] == jid]
        assert how in kinds

    def test_the_pools_own_events_do_not_wake_it(self, service, pool,
                                                 monkeypatch):
        claims = []
        claim_jobs = service.claim_jobs
        monkeypatch.setattr(
            service, "claim_jobs",
            lambda *a, **k: claims.append(a) or claim_jobs(*a, **k))
        jid = service.submit("probe", _ok(0)).new[0]
        with _resident(pool(n=1, **_SLOW_TICK)):
            assert service.wait([jid], timeout=30)[jid].state == "DONE"
            time.sleep(1.0)
            # The claim that got the job and the empty one after its
            # reap; claimed / launched / done woke nothing.
            assert len(claims) <= 2

    def test_the_wake_sockets_do_not_outlive_the_run(self, service):
        service.run_workers(n=1, max_seconds=60)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            service.run_workers(n=1, max_seconds=60)
        # (<=: earlier tests' garbage may be collected meanwhile)
        assert len(os.listdir("/proc/self/fd")) <= before


#: (kind, payload A, two other payloads run between A's two runs, the
#: result fields that must match -- None for all of them)
_HISTORY = [
    ("sim", {"n": 4096, "nb": 256, "p": 2, "q": 2},
     [{"n": 8192, "nb": 512, "p": 4, "q": 2, "schedule": "lookahead"},
      {"n": 6144, "nb": 384, "p": 2, "q": 4, "split_fraction": 0.3}], None),
    ("scale", {"nnodes": 2, "n_single": 32_000, "nb": 256},
     [{"nnodes": 8, "n_single": 32_000, "nb": 512},
      {"nnodes": 1, "n_single": 16_000, "nb": 256}], None),
    ("fact", {"nb": 128, "m_multiples": [1, 4], "thread_counts": [1, 4]},
     [{"nb": 256, "m_multiples": [2], "thread_counts": [2, 8]},
      {"nb": 512}], None),
    ("run", {"n": 96, "nb": 8, "p": 2, "q": 2, "seed": 7},
     [{"n": 32, "nb": 8, "p": 1, "q": 2, "seed": 8},
      {"n": 48, "nb": 8, "p": 2, "q": 2, "seed": 9}], ("resid", "passed")),
]


@pytest.fixture
def child():
    """``child(kind, payload)``: run a job on one resident runner child."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    process = ctx.Process(target=_child_main, args=(theirs,), daemon=True)
    process.start()
    theirs.close()

    def run(kind, payload):
        ours.send(Job(id=new_job_id(), kind=kind, payload=payload,
                      key=payload_key(kind, payload)))
        assert ours.poll(120)
        status, body = ours.recv()
        assert status == "ok", body
        return body

    yield run
    ours.send(None)  # the sentinel ends an idle child quietly
    process.join(10)
    assert process.exitcode == 0


class TestWarmChildPurity:
    @pytest.mark.parametrize("kind, a, others, fields", _HISTORY,
                             ids=[row[0] for row in _HISTORY])
    def test_result_does_not_depend_on_the_childs_history(
            self, child, kind, a, others, fields):
        """A on a fresh child == A after B and C on the same warm child
        == A computed in this process."""
        cold = child(kind, a)
        for payload in others:
            child(kind, payload)
        warm = child(kind, a)
        local = runner_for(kind)(a, None)
        for field in fields or local:
            assert cold[field] == warm[field] == local[field]


class TestHappyPathOverHTTP(TestHappyPath):
    transport = "http"


class TestCrashIsolationOverHTTP(TestCrashIsolation):
    transport = "http"


class TestTimeoutsOverHTTP(TestTimeouts):
    transport = "http"


class TestClaimTimeCacheFulfilmentOverHTTP(TestClaimTimeCacheFulfilment):
    transport = "http"


class TestParentLookupOverHTTP(TestParentLookup):
    transport = "http"


class TestChildLifecycleOverHTTP(TestChildLifecycle):
    transport = "http"


class TestResultSizeLimitOverHTTP(TestResultSizeLimit):
    transport = "http"


class TestSupervision:
    def test_orphaned_running_jobs_are_recovered(self, service):
        """A dead supervisor's RUNNING rows come back by lease expiry."""
        service.submit("probe", {"behavior": "ok"})
        _lease, (orphan,) = service.store.claim_batch(
            "dead-pool", limit=1, ttl=0.05)  # supervisor "dies" here
        assert orphan.state is JobState.RUNNING

        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1
        job = service.store.get(orphan.id)
        assert job.state is JobState.DONE
        assert job.attempts == 2  # the orphaned claim plus the real one

    def test_running_row_with_no_lease_is_an_orphan(self, service):
        """A RUNNING row whose ``lease_expires`` is 0 holds no lease; the
        expiry sweep requeues it like any lapsed one."""
        jid = service.submit("probe", {"behavior": "ok"}).new[0]
        conn = sqlite3.connect(service.store.db_path)
        with conn:
            conn.execute("UPDATE jobs SET state = 'RUNNING', attempts = 1,"
                         " worker = 'pool/0' WHERE id = ?", (jid,))
        conn.close()
        assert [j.id for j in service.store.expire_leases()] == [jid]
        assert service.store.get(jid).state is JobState.PENDING
        assert service.store.expire_leases() == []  # exactly once

    def test_unknown_kind_is_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="unknown job kind"):
            service.submit("frobnicate", {})

    def test_pool_requires_at_least_one_worker(self, service):
        with pytest.raises(ServiceError):
            service.worker_pool(WorkerOptions(n=0))


class _Canary:
    """Cyclic garbage that writes a byte to ``fd`` when finalized, until
    its ``fd`` is cleared."""

    def __init__(self, fd: int) -> None:
        self.fd: int | None = fd
        self.cycle = self

    def __del__(self) -> None:
        if self.fd is not None:
            os.write(self.fd, b"x")


class TestForkSafety:
    def test_child_never_finalizes_what_other_threads_owned(self, service):
        """The pool forks from a process whose other threads (HTTP
        handlers) each own a thread-local sqlite connection.  In the
        child those threads are gone and their connections are cyclic
        garbage; closing one there waits forever on any sqlite-global
        mutex a busy thread held at the instant of the fork.  So a
        child must never finalize inherited garbage -- shown here with
        a canary in a parked thread's thread-local storage and a job
        that runs a full collection."""
        import gc
        import threading
        import weakref

        from repro.service import register_runner
        from repro.service.workers import RUNNERS

        rfd, wfd = os.pipe()
        os.set_blocking(rfd, False)
        local = threading.local()
        parked, stop = threading.Event(), threading.Event()
        canary = None

        def handler():
            nonlocal canary
            local.canary = _Canary(wfd)
            canary = weakref.ref(local.canary)
            parked.set()
            stop.wait(60)

        thread = threading.Thread(target=handler, daemon=True)
        thread.start()
        assert parked.wait(10)
        register_runner("collect", lambda payload, job: {"n": gc.collect()})
        try:
            service.submit("collect", {}, max_retries=0)
            summary = service.run_workers(n=1, max_seconds=60)
            assert summary.completed == 1
            with pytest.raises(BlockingIOError):  # the canary never sang
                os.read(rfd, 1)
        finally:
            RUNNERS.pop("collect", None)
            stop.set()
            thread.join(10)
            # Disarmed before the pipe closes: a canary finalized later
            # must not write to whatever reuses ``wfd``.
            alive = canary() if canary is not None else None
            if alive is not None:
                alive.fd = None
            os.close(rfd)
            os.close(wfd)
