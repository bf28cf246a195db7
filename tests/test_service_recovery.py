"""Crash recovery: a supervisor killed mid-job must not lose the job.

A real worker-pool process (subprocess, SIGKILL -- no chance to clean
up) is murdered while its child is mid-probe.  Its heartbeats stop, the
lease lapses, and the coordinator requeues the job exactly once for the
next pool -- the same recovery whether the dead supervisor was leasing
in process or over HTTP -- leaving the whole story readable in the
JSONL event log.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.service import JobState, Service, WorkerOptions, WorkerPool
from repro.service.http import ServiceClient, ServiceHTTPServer

#: argv[1] is a workdir (in-process transport) or a URL (HTTP).
_POOL_SCRIPT = """
import sys
from repro.service import Service, WorkerOptions, WorkerPool
from repro.service.http import ServiceClient
options = WorkerOptions(n=1, drain=False, max_seconds=120, lease_ttl=1.0)
target = sys.argv[1]
pool = (WorkerPool(ServiceClient(target), options) if "://" in target
        else Service(target).worker_pool(options))
pool.run()
"""


def _wait_for_event(service: Service, name: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(e["event"] == name for e in service.store.events()):
            return
        time.sleep(0.05)
    raise AssertionError(f"no {name!r} event within {timeout}s")


@pytest.fixture
def service(tmp_path):
    return Service(tmp_path / "svc", backoff_base=0.01)


def _kill_supervisor_then_recover(service, target, recover) -> None:
    """SIGKILL a pool leasing from ``target`` mid-job; ``recover()``
    runs the next pool.  The job must be requeued once, by lease expiry,
    and finish on its second attempt."""
    # hang_once: sleeps through attempt 1 (the one we kill), returns ok
    # on attempt 2 -- so recovery is observable and fast.
    receipt = service.submit(
        "probe", {"behavior": "hang_once", "seconds": 45.0}, max_retries=2
    )
    jid = receipt.new[0]

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT, target], env=env
    )
    try:
        # The pool claims the job and launches the hanging child ...
        _wait_for_event(service, "launched")
        assert service.store.get(jid).state is JobState.RUNNING
    finally:
        # ... and dies without any chance to fail or requeue it.
        proc.kill()
        proc.wait(timeout=30)

    orphan = service.store.get(jid)
    assert orphan.state is JobState.RUNNING  # nobody cleaned up
    assert orphan.attempts == 1

    # The next pool's claims sweep the lapsed lease; the retry completes.
    summary = recover()
    assert summary.completed == 1
    job = service.store.get(jid)
    assert job.state is JobState.DONE
    assert job.attempts == 2  # the killed attempt + exactly one retry
    assert service.result(jid).result["attempt"] == 2

    # The whole story is in the event log: exactly one expiry requeue,
    # exactly two claims (the killed attempt and the retry).
    kinds = [e["event"] for e in service.store.events() if e["job"] == jid]
    assert kinds.count("lease_expired") == 1
    assert kinds.count("requeued") == 0
    assert kinds.count("claimed") == 2
    assert kinds.count("done") == 1


def test_killed_supervisor_orphan_is_recovered_and_retried_once(service):
    _kill_supervisor_then_recover(
        service, service.workdir,
        lambda: service.run_workers(n=1, max_seconds=60))


def test_killed_remote_supervisor_orphan_is_recovered_and_retried_once(
        service):
    with ServiceHTTPServer(service.workdir, workers=0,
                           backoff_base=0.01) as srv:
        _kill_supervisor_then_recover(
            service, srv.url,
            lambda: WorkerPool(
                ServiceClient(srv.url),
                WorkerOptions(n=1, max_seconds=60, lease_ttl=2.0)).run())


def test_recovery_does_not_touch_terminal_jobs(service):
    """The expiry sweep a new pool's claims run only touches RUNNING rows."""
    done = service.submit("probe", {"behavior": "ok"})
    service.run_workers(n=1, max_seconds=60)
    cancelled = service.submit("probe", {"behavior": "sleep",
                                         "seconds": 30.0})
    service.cancel_job(cancelled.new[0])

    before = {jid: service.store.get(jid).attempts
              for jid in (done.new[0], cancelled.new[0])}
    service.run_workers(n=1, max_seconds=60)
    assert service.store.get(done.new[0]).state is JobState.DONE
    assert service.store.get(cancelled.new[0]).state is JobState.CANCELLED
    for jid, attempts in before.items():
        assert service.store.get(jid).attempts == attempts
