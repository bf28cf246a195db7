"""Crash recovery: a supervisor killed mid-job must not lose the job.

A real worker-pool process (subprocess, SIGKILL -- no chance to clean
up) is murdered while its child is mid-probe.  Its heartbeats stop, the
lease lapses, and the coordinator requeues the job exactly once for the
next pool -- the same recovery whether the dead supervisor was leasing
in process or over HTTP -- leaving the whole story readable in the
JSONL event log.

The runner children are resident, so the other half of the story is
theirs: none may outlive a dead supervisor by more than its current
job, and none may keep the supervisor's sockets (a restarted ``repro
serve`` must be able to bind the port at once).
"""

from __future__ import annotations

import os
import signal
import socket
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


def _repro(*argv) -> subprocess.Popen:
    """``python -m repro ...`` as a subprocess; stdout is piped."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *map(str, argv)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _serve(workdir, port: int, workers: int) -> tuple[subprocess.Popen, str]:
    proc = _repro("serve", "--workdir", workdir, "--port", port,
                  "--workers", workers, "--backoff", "0.01")
    line = proc.stdout.readline()  # "serving <workdir> on <url> with ..."
    url = next((tok for tok in line.split() if tok.startswith("http://")),
               None)
    if url is None:
        proc.kill()
        raise AssertionError(
            f"repro serve did not come up: {line}{proc.stdout.read()}")
    return proc, url


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid`` (read from ``/proc``)."""
    found = []
    for name in os.listdir("/proc"):
        if name.isdigit() and _parent_and_state(int(name))[0] == pid:
            found.append(int(name))
    return found


def _parent_and_state(pid: int) -> tuple[int, str]:
    """``(ppid, state)`` of a process; ``(0, "X")`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except (FileNotFoundError, ProcessLookupError):
        return 0, "X"
    return int(ppid), state


def _running(pid: int) -> bool:
    """A zombie nobody reaps has exited: no sockets, no memory."""
    return _parent_and_state(pid)[1] not in "XZ"


def _wait_dead(pids, timeout: float) -> list[int]:
    """The pids still running after at most ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if _running(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _sockets(pid: int) -> int:
    """How many of a process's open descriptors are sockets."""
    count = 0
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            count += os.readlink(f"/proc/{pid}/fd/{fd}").startswith("socket:")
        except FileNotFoundError:
            pass  # closed since the listing
    return count


@pytest.mark.parametrize("supervisor", ["serve", "workers --url"])
def test_no_runner_child_outlives_a_killed_supervisor(tmp_path, supervisor):
    """SIGKILL a supervisor with one warm idle child and one busy one.
    Neither holds any socket but its own pipe -- not the coordinator's
    listening socket, not the supervisor's end of its sibling's pipe --
    so the port can be bound again at once, the idle child sees EOF and
    leaves, and the busy one leaves right after its job."""
    embedded = supervisor == "serve"
    port = _free_port()
    server, url = _serve(tmp_path / "svc", port, workers=2 if embedded else 0)
    pool = server if embedded else _repro(
        "workers", "--url", url, "-n", 2, "--no-drain", "--ttl", 2)
    client = ServiceClient(url, timeout=10.0)
    children: list[int] = []
    try:
        # Two concurrent jobs fork both children; the short one leaves
        # its child warm and idle while the long one is still running.
        short, _long = (r.new[0] for r in client.submit_many([
            {"kind": "probe",
             "payload": {"behavior": "sleep", "seconds": seconds}}
            for seconds in (0.1, 1.0)]))
        assert client.wait([short], timeout=60)[short].state == "DONE"
        children = _children(pool.pid)
        assert len(children) == 2
        assert [_sockets(pid) for pid in children] == [1, 1]
        pool.send_signal(signal.SIGKILL)
        pool.wait(timeout=30)
        if embedded:  # the busy child is still alive: it must not matter
            server, _ = _serve(tmp_path / "svc", port, workers=0)
            assert ServiceClient(url, timeout=10.0).healthz()["ok"]
        # Up to 1 s for the running job, 2 s for everything else.
        assert _wait_dead(children, 3.0) == []
    finally:
        for proc in {pool, server}:
            proc.kill()
            proc.wait(timeout=30)
        for pid in filter(_running, children):
            os.kill(pid, signal.SIGKILL)
