"""Cross-shard chaos: kill workers and the coordinator, prove recovery.

The sharded coordinator's crash-safety claims, exercised with real
processes and real SIGKILL (no cooperative shutdown):

* **SIGKILLed worker, 3 shards** -- a fleet member dies holding a
  lease; the job's shard requeues it exactly once (one
  ``lease_expired`` in the merged audit), a survivor completes it, and
  every event for the job lives in the event log of the one shard its
  key routes to: jobs never migrate between shards.
* **SIGKILLed coordinator mid-submit** -- the serve process dies
  partway through a 40-point submission batch; a new coordinator over
  the same shard workdirs accepts a full resubmission and content-key
  dedup guarantees no shard ends up holding two active jobs for one
  key, with every row on its routed shard.
* **Soak** -- two ``repro workers --url`` processes drain a 60-job
  sweep from a 3-shard coordinator: zero duplicate executions, zero
  lease expiries, both workers participate, all three shards carried
  load.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import JobState, Service, Sweep, shard_index
from repro.service.cache import payload_key
from repro.service.http import ServiceClient

pytestmark = pytest.mark.dedicated

NSHARDS = 3


def _start_serve(workdir, shards: int = NSHARDS) -> tuple[subprocess.Popen,
                                                          str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         "--shards", str(shards), "--port", "0", "--workers", "0",
         "--backoff", "0.01"],
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


def _stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


class TestSigkilledWorkerOnShards:
    def test_requeue_exactly_once_lands_on_the_same_shard(self, tmp_path):
        """Kill a fleet member mid-lease on a 3-shard coordinator: the
        shard holding the job requeues it exactly once, a survivor
        finishes it, and no other shard ever saw the job.
        """
        proc, url = _start_serve(tmp_path / "svc")
        victim = survivor = None
        try:
            client = ServiceClient(url)
            jid = client.submit(
                "probe", {"behavior": "hang_once", "seconds": 120.0}
            ).new[0]
            home = shard_index(client.job(jid).key, NSHARDS)

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
        finally:
            _stop(victim)
            _stop(survivor)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        assert service.nshards == NSHARDS
        # Merged audit: claimed twice (victim + survivor), requeued by
        # lease expiry exactly once, done exactly once.
        kinds = [e["event"] for e in service.store.events()
                 if e.get("job") == jid]
        assert kinds.count("claimed") == 2
        assert kinds.count("lease_expired") == 1
        assert kinds.count("done") == 1
        # Same-shard requeue: the job's whole history lives in its
        # routed shard's log; every other shard has zero trace of it.
        for i, shard in enumerate(service.store.shards):
            mine = [e for e in shard.events() if e.get("job") == jid]
            if i == home:
                assert len(mine) == len(kinds)
            else:
                assert mine == []
        assert service.store.shards[home].get(jid).state is JobState.DONE


class TestSigkilledCoordinator:
    def test_no_duplicate_active_jobs_after_kill_and_resubmit(
            self, tmp_path):
        """SIGKILL the coordinator while a 40-point batch is being
        submitted, restart it over the same shards, resubmit the full
        batch: per content key at most one active job exists anywhere,
        and every row sits on its routed shard.
        """
        payloads = [{"n": 1024 * (i + 1), "nb": 64, "p": 2, "q": 2}
                    for i in range(40)]
        proc, url = _start_serve(tmp_path / "svc")
        client = ServiceClient(url)
        # SIGKILL the coordinator partway through the batch, so the
        # rest of the submissions die against a vanished server.
        landed = 0
        try:
            for i, payload in enumerate(payloads):
                if i == 15:
                    proc.kill()
                    proc.wait(timeout=30)
                client.submit("sim", payload)
                landed += 1
        except Exception:
            pass  # the coordinator went away mid-batch, as intended
        assert landed < len(payloads), "kill landed after the whole batch"

        # A fresh coordinator over the same workdirs: resubmit all 40.
        proc2, url2 = _start_serve(tmp_path / "svc")
        try:
            client2 = ServiceClient(url2)
            receipt_new = receipt_deduped = 0
            for payload in payloads:
                r = client2.submit("sim", payload)
                receipt_new += len(r.new)
                receipt_deduped += len(r.deduped)
            # Everything that survived the crash deduplicates; the rest
            # queue fresh.  Either way the full grid is active exactly
            # once.
            assert receipt_new + receipt_deduped == len(payloads)
            assert receipt_deduped >= landed
        finally:
            proc2.send_signal(signal.SIGINT)
            proc2.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        assert service.nshards == NSHARDS
        active_by_key: dict[str, list[str]] = {}
        for i, shard in enumerate(service.store.shards):
            for job in shard.list():
                # Routing invariant: a row only ever lives on its shard.
                assert shard_index(job.key, NSHARDS) == i, job.id
                if job.state in (JobState.PENDING, JobState.RUNNING):
                    active_by_key.setdefault(job.key, []).append(job.id)
        expected_keys = {payload_key("sim", p) for p in payloads}
        assert set(active_by_key) == expected_keys
        # THE crash-safety claim: no shard holds a duplicate active job.
        dupes = {k: v for k, v in active_by_key.items() if len(v) > 1}
        assert dupes == {}


class TestShardedFleetSoak:
    def test_two_workers_drain_60_jobs_with_zero_duplicates(self, tmp_path):
        """The acceptance soak: a 3-shard coordinator feeds a 60-job
        sweep to two remote worker processes; the merged audit logs
        prove every job was claimed and executed exactly once, no lease
        expired, both workers took part, and all three shards held work.
        """
        proc, url = _start_serve(tmp_path / "svc")
        workers = []
        try:
            client = ServiceClient(url)
            receipt = client.submit_sweep(
                Sweep(kind="probe", axes={"tag": list(range(60))},
                      base={"behavior": "sleep", "seconds": 0.2}),
                timeout=60.0,
            )
            ids = receipt.new
            assert len(ids) == 60
            workers = [_start_worker(url, n=2, ttl=10.0, name=f"host{i}")
                       for i in range(2)]
            views = client.wait(ids, timeout=240)
            assert all(v.state == "DONE" for v in views.values())
            for w in workers:
                out, _ = w.communicate(timeout=120)
                assert w.returncode == 0, out
                assert "finished" in out
        finally:
            for w in workers:
                _stop(w)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        events = service.store.events()
        for jid in ids:
            mine = [e["event"] for e in events if e.get("job") == jid]
            assert mine.count("claimed") == 1, (jid, mine)
            assert mine.count("done") == 1, (jid, mine)
            assert mine.count("lease_expired") == 0, (jid, mine)
        # Both fleet members actually drained a share of the queue.
        claimers = {e["worker"] for e in events if e["event"] == "claimed"}
        assert len(claimers) == 2
        # All three shards carried load (60 hashed keys leave a shard
        # empty with probability ~(2/3)^60 ~ 3e-11: deterministic here).
        per_shard = [shard.counts()["DONE"]
                     for shard in service.store.shards]
        assert all(n > 0 for n in per_shard)
        assert sum(per_shard) == 60
