"""The remote worker fleet: lease protocol, recovery, zero duplicates.

Three layers are exercised:

* the store's lease primitives (atomic batch claims, heartbeat,
  lease-guarded complete/fail, expiry-requeue-exactly-once);
* the HTTP lease endpoints' typed error contract (409 ``conflict`` /
  ``lease_expired``, 400 ``malformed``);
* whole fleets at the CLI level: a SIGKILLed ``repro workers --url``
  subprocess whose jobs come back via lease expiry and end DONE, and
  two concurrent worker subprocesses draining one sweep with zero
  duplicate executions, asserted from the audit log.  (What one pool
  does over HTTP -- timeouts, crashes, retries -- is covered by the
  ``...OverHTTP`` classes of ``test_service_workers.py``.)
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.errors import (
    LeaseConflictError,
    LeaseExpiredError,
    MalformedRequestError,
    UnknownJobError,
)
from repro.service import (
    Job,
    JobState,
    JobStore,
    Service,
    new_job_id,
)
from repro.service.http import ServiceClient, ServiceHTTPServer


def _job(kind="probe", payload=None, **kw) -> Job:
    return Job(id=new_job_id(), kind=kind,
               payload=payload or {"behavior": "ok"}, key="", **kw)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "svc")


class TestLeaseStore:
    def test_claim_batch_is_atomic_and_bounded(self, store):
        ids = [store.add(_job()).id for _ in range(3)]
        lease, jobs = store.claim_batch("w1", limit=2, ttl=30.0)
        assert lease is not None and lease.worker == "w1"
        assert [j.id for j in jobs] == ids[:2]
        for j in jobs:
            assert j.state is JobState.RUNNING
            assert j.attempts == 1
            assert j.lease_id == lease.id
        # The remaining job goes to the next claimer, under a new lease.
        lease2, rest = store.claim_batch("w2", limit=2, ttl=30.0)
        assert [j.id for j in rest] == ids[2:]
        assert lease2.id != lease.id
        # Nothing left: no empty lease is minted.
        assert store.claim_batch("w3", limit=1) == (None, [])

    def test_heartbeat_extends_live_lease(self, store):
        store.add(_job())
        lease, _ = store.claim_batch("w1", ttl=30.0, now=100.0)
        extended = store.heartbeat_lease(lease.id, ttl=50.0, now=120.0)
        assert extended.expires == pytest.approx(170.0)
        assert store.get(store.list()[0].id).lease_expires == \
            pytest.approx(170.0)

    def test_heartbeat_after_expiry_raises(self, store):
        store.add(_job())
        lease, _ = store.claim_batch("w1", ttl=1.0, now=100.0)
        with pytest.raises(LeaseExpiredError):
            store.heartbeat_lease(lease.id, ttl=1.0, now=200.0)
        with pytest.raises(LeaseExpiredError):
            store.heartbeat_lease("nosuchlease", ttl=1.0)

    def test_complete_guarded_by_lease_ownership(self, store):
        jid = store.add(_job()).id
        lease, _ = store.claim_batch("w1", ttl=30.0)
        with pytest.raises(LeaseConflictError):
            store.complete_leased(jid, "wrong-lease", "key")
        with pytest.raises(UnknownJobError):
            store.complete_leased("nosuchjob", lease.id, "key")
        done = store.complete_leased(jid, lease.id, "key")
        assert done.state is JobState.DONE and done.lease_id == ""

    def test_late_upload_after_expiry_is_rejected(self, store):
        jid = store.add(_job()).id
        lease, _ = store.claim_batch("w1", ttl=1.0, now=100.0)
        # The sweep (run lazily by the next store call) requeues first.
        with pytest.raises(LeaseExpiredError):
            store.complete_leased(jid, lease.id, "key", now=200.0)
        assert store.get(jid).state is JobState.PENDING

    def test_fail_leased_applies_bounded_retry(self, store):
        jid = store.add(_job(max_retries=1)).id
        lease, _ = store.claim_batch("w1", ttl=30.0, now=100.0)
        retried = store.fail_leased(jid, lease.id, "boom",
                                    backoff_base=0.5, now=101.0)
        assert retried.state is JobState.PENDING
        assert retried.not_before == pytest.approx(101.5)
        lease2, _ = store.claim_batch("w1", ttl=30.0, now=200.0)
        final = store.fail_leased(jid, lease2.id, "boom again", now=201.0)
        assert final.state is JobState.FAILED

    def test_expire_leases_requeues_exactly_once(self, store):
        jid = store.add(_job()).id
        lease, _ = store.claim_batch("w1", ttl=1.0, now=100.0)
        first = store.expire_leases(now=200.0)
        assert [j.id for j in first] == [jid]
        assert first[0].state is JobState.PENDING
        assert "presumed dead" in first[0].error
        # The second sweep finds nothing: requeue happened exactly once.
        assert store.expire_leases(now=200.0) == []
        assert store.get_lease(lease.id) is None
        expiries = [e for e in store.events()
                    if e["event"] == "lease_expired"]
        assert len(expiries) == 1 and expiries[0]["job"] == jid

    def test_expired_lease_with_spent_retries_fails_job(self, store):
        jid = store.add(_job(max_retries=0)).id
        store.claim_batch("w1", ttl=1.0, now=100.0)
        store.expire_leases(now=200.0)
        assert store.get(jid).state is JobState.FAILED


class TestServiceLeaseFacade:
    def test_claim_fulfils_cached_jobs_without_shipping(self, tmp_path):
        service = Service(tmp_path / "svc")
        payload = {"n": 512, "nb": 64, "p": 2, "q": 2}
        jid = service.submit("sim", payload).new[0]
        service.cache.put(service.store.get(jid).key, "sim", payload,
                          {"score_tflops": 1.0})
        lease, shipped = service.claim_jobs("w1", n=4)
        assert lease is None and shipped == []
        assert service.store.get(jid).state is JobState.DONE
        assert service.result(jid).result == {"score_tflops": 1.0}

    def test_claim_validates_arguments(self, tmp_path):
        service = Service(tmp_path / "svc")
        with pytest.raises(MalformedRequestError, match="n must be"):
            service.claim_jobs("w1", n=0)
        with pytest.raises(MalformedRequestError, match="ttl"):
            service.claim_jobs("w1", ttl=0)
        with pytest.raises(MalformedRequestError, match="worker"):
            service.claim_jobs("")
        with pytest.raises(MalformedRequestError, match="result"):
            service.complete_job("x", "y", None)


class TestLeaseEndpoints:
    @pytest.fixture
    def server(self, tmp_path):
        # No resident pool: only remote claimers move jobs.
        with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
            yield srv

    def test_claim_heartbeat_complete_over_http(self, server):
        c = ServiceClient(server.url)
        jid = c.submit("probe", {"behavior": "ok"}).new[0]
        lease, jobs = c.claim_jobs("w1", n=2, ttl=30.0)
        assert [j.id for j in jobs] == [jid]
        assert jobs[0].timeout == 0.0 and jobs[0].attempts == 1
        extended = c.heartbeat(lease.id, ttl=60.0)
        assert extended.expires > lease.expires
        done = c.complete_job(jid, lease.id, {"ok": True})
        assert done.state == "DONE"
        assert c.result(jid).result == {"ok": True}

    def test_fail_over_http_requeues_with_backoff(self, server):
        c = ServiceClient(server.url)
        jid = c.submit("probe", {"behavior": "ok"}).new[0]
        lease, _ = c.claim_jobs("w1")
        view = c.fail_job(jid, lease.id, "transient boom")
        assert view.state == "PENDING" and "boom" in view.error

    def test_lease_error_codes_over_the_wire(self, server):
        c = ServiceClient(server.url)
        jid = c.submit("probe", {"behavior": "ok"}).new[0]
        lease, _ = c.claim_jobs("w1", ttl=30.0)
        with pytest.raises(LeaseConflictError):
            c.complete_job(jid, "wrong-lease", {"ok": True})
        with pytest.raises(LeaseExpiredError):
            c.heartbeat("nosuchlease")
        with pytest.raises(MalformedRequestError):
            c.claim_jobs("w1", n=0)
        with pytest.raises(MalformedRequestError):
            c._request("POST", f"/v1/jobs/{jid}/complete", {"lease": ""})
        # The raw status for lease conflicts is 409.
        request = urllib.request.Request(
            server.url + f"/v1/jobs/{jid}/complete",
            data=json.dumps({"lease": "zzz", "result": {}}).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "conflict"


def _start_serve(workdir) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         "--port", "0", "--workers", "0", "--backoff", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def _start_worker(url: str, *, n: int = 2, ttl: float = 30.0,
                  name: str = "") -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "workers", "--url", url,
           "-n", str(n), "--ttl", str(ttl), "--backoff", "0.01"]
    if name:
        cmd += ["--name", name]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )


class TestFleetProcesses:
    def test_sigkilled_worker_jobs_requeue_and_finish(self, tmp_path):
        """The acceptance path: kill a fleet member mid-job; the lease
        lapses, the coordinator requeues exactly once, and a surviving
        worker completes the job (hang_once sleeps only on attempt 1).
        """
        proc, url = _start_serve(tmp_path / "svc")
        victim = survivor = None
        try:
            client = ServiceClient(url)
            jid = client.submit(
                "probe", {"behavior": "hang_once", "seconds": 120.0}
            ).new[0]
            victim = _start_worker(url, n=1, ttl=1.5, name="victim")
            deadline = time.monotonic() + 60.0
            while client.job(jid).state != "RUNNING":
                assert time.monotonic() < deadline, "job never claimed"
                time.sleep(0.05)
            victim.kill()
            victim.wait(timeout=30)

            survivor = _start_worker(url, n=1, ttl=5.0, name="survivor")
            view = client.wait([jid], timeout=120)[jid]
            assert view.state == "DONE"
            assert view.result["attempt"] == 2
            assert view.job.worker == "survivor"
            survivor.wait(timeout=60)

            events = Service(tmp_path / "svc").store.events()
            mine = [e for e in events if e.get("job") == jid]
            kinds = [e["event"] for e in mine]
            assert kinds.count("lease_expired") == 1
            assert kinds.count("claimed") == 2
            assert kinds.count("done") == 1
        finally:
            for p in (victim, survivor):
                if p is not None and p.poll() is None:
                    p.kill()
                    p.wait(timeout=30)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

    def test_two_worker_fleet_drains_sweep_without_duplicates(
            self, tmp_path):
        """Two concurrent `repro workers --url` processes drain one
        sweep; the audit log proves every job ran exactly once.
        """
        proc, url = _start_serve(tmp_path / "svc")
        workers = []
        try:
            client = ServiceClient(url)
            # Jobs sleep briefly so the drain outlasts both workers'
            # startup skew and each host demonstrably claims a share.
            ids = [client.submit("probe", {"behavior": "sleep",
                                           "seconds": 0.8, "tag": i},
                                 timeout=60.0).new[0]
                   for i in range(10)]
            workers = [_start_worker(url, n=2, ttl=10.0, name=f"host{i}")
                       for i in range(2)]
            views = client.wait(ids, timeout=120)
            assert all(v.state == "DONE" for v in views.values())
            for w in workers:
                out, _ = w.communicate(timeout=60)
                assert w.returncode == 0, out
                assert "finished" in out

            events = Service(tmp_path / "svc").store.events()
            for jid in ids:
                mine = [e["event"] for e in events if e.get("job") == jid]
                assert mine.count("claimed") == 1, (jid, mine)
                assert mine.count("done") == 1, (jid, mine)
                assert mine.count("lease_expired") == 0, (jid, mine)
            # Both hosts actually participated in the drain.
            claimers = {e["worker"] for e in events
                        if e["event"] == "claimed"}
            assert len(claimers) == 2
        finally:
            for w in workers:
                if w.poll() is None:
                    w.kill()
                    w.wait(timeout=30)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
