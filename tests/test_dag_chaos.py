"""DAG chaos: SIGKILL workers and coordinators, prove exactly-once release.

Three scenarios over real processes and real SIGKILL:

* **Worker dies mid-parent** -- a child must stay ``BLOCKED`` while its
  requeued parent reruns; the eventual completion releases it exactly
  once (one ``released`` audit event despite two parent attempts).
* **Coordinator dies mid-release-sweep** (deterministic construction)
  -- on-disk state holds a ``DONE`` parent whose children were only
  partially released and a ``FAILED`` parent whose child was never
  cancelled; a fresh coordinator's startup sweep must finish the job
  exactly once per child, including the half-released one.
* **Coordinator SIGKILLed mid-drain** -- a live coordinator is killed
  while a fan-in DAG is in flight; a replacement over the same workdir
  drains it to DONE with single-release audit proof and no
  orphaned ``BLOCKED`` jobs.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.service import JobState, Service
from repro.service.http import ServiceClient

from .conftest import claim_one, start_serve, start_worker, stop

pytestmark = pytest.mark.dedicated


def _audit(service, event, job_id):
    return [e for e in service.store.events()
            if e["event"] == event and e.get("job") == job_id]


class TestWorkerKilledMidParent:
    def test_child_released_exactly_once_despite_requeue(self, tmp_path):
        """SIGKILL the worker while it holds the parent's lease: the
        child stays BLOCKED through the requeue, a survivor's second
        attempt releases it, and the audit shows exactly one release.
        """
        proc, url = start_serve(tmp_path / "svc")
        victim = survivor = None
        try:
            client = ServiceClient(url)
            parent = client.submit(
                "probe", {"behavior": "hang_once", "seconds": 120.0}
            ).new[0]
            child = client.submit(
                "probe", {"behavior": "echo", "tag": 1},
                depends_on=[parent],
            ).new[0]
            assert client.job(child).state == "BLOCKED"

            victim = start_worker(url, n=1, ttl=1.5, name="victim")
            deadline = time.monotonic() + 60.0
            while client.job(parent).state != "RUNNING":
                assert time.monotonic() < deadline, "parent never claimed"
                time.sleep(0.05)
            victim.kill()
            victim.wait(timeout=30)
            # The parent is dead-but-leased; its child must not move.
            assert client.job(child).state == "BLOCKED"

            survivor = start_worker(url, n=1, ttl=5.0, name="survivor")
            views = client.wait([parent, child], timeout=120)
            assert views[parent].state == "DONE"
            assert views[parent].result["attempt"] == 2
            assert views[child].state == "DONE"
            survivor.wait(timeout=60)
        finally:
            stop(victim)
            stop(survivor)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        # The requeue path ran (lease expired once) yet the child was
        # released exactly once -- by the terminal transition, not the
        # requeue.
        assert len(_audit(service, "lease_expired", parent)) == 1
        assert len(_audit(service, "released", child)) == 1
        assert len(_audit(service, "claimed", child)) == 1
        assert service.store.counts()["BLOCKED"] == 0


class TestCoordinatorKilledMidSweep:
    def test_startup_sweep_finishes_partial_release(self, tmp_path):
        """Construct the exact on-disk state a coordinator leaves when
        it dies halfway through a release sweep, then prove a fresh
        coordinator recovers it: the already-released child is not
        double-released, the orphaned ones are released, and the child
        of the failed parent is cancelled -- each exactly once.
        """
        svc = Service(tmp_path / "svc")
        done_parent = svc.submit(
            "probe", {"behavior": "echo", "tag": 0}).new[0]
        kids = [svc.submit("probe", {"behavior": "echo", "tag": i},
                           depends_on=[done_parent]).new[0]
                for i in (1, 2, 3)]
        bad_parent = svc.submit(
            "probe", {"behavior": "crash", "message": "boom"},
            max_retries=0).new[0]
        doomed = svc.submit("probe", {"behavior": "echo", "tag": 4},
                            depends_on=[bad_parent]).new[0]

        # Sever the resolver (the part of the coordinator that "dies"),
        # complete both parents, then release only the first child --
        # the sweep was one guarded UPDATE in when the process vanished.
        svc.store.set_terminal_hook(None)
        for _ in range(2):
            job = claim_one(svc.store)
            if job.id == done_parent:
                svc.store.complete_leased(job.id, job.lease_id, "rk")
            else:
                svc.store.fail_leased(job.id, job.lease_id, "boom")
        assert svc.store.release(kids[0]) is True
        assert svc.store.get(kids[1]).state is JobState.BLOCKED
        assert svc.store.get(doomed).state is JobState.BLOCKED

        # A fresh coordinator over the same workdir sweeps on startup.
        proc, url = start_serve(tmp_path / "svc", workers=2)
        try:
            client = ServiceClient(url)
            views = client.wait(kids, timeout=120)
            assert all(v.state == "DONE" for v in views.values())
            assert client.job(doomed).state == "CANCELLED"
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        for kid in kids:  # including the pre-released kids[0]
            assert len(_audit(service, "released", kid)) == 1
        assert len(_audit(service, "parent_failed", doomed)) == 1
        assert _audit(service, "released", doomed) == []
        assert service.store.counts()["BLOCKED"] == 0

    def test_live_coordinator_sigkill_mid_drain(self, tmp_path):
        """SIGKILL a live coordinator while a fan-in DAG drains, bring
        up a replacement on the same workdir: everything reaches DONE,
        every release happened exactly once across both incarnations,
        and nothing is left BLOCKED.
        """
        proc, url = start_serve(tmp_path / "svc", workers=2)
        client = ServiceClient(url)
        # Staggered durations keep the drain partially complete for a
        # while, so the kill reliably lands mid-flight.
        parents = [client.submit(
            "probe", {"behavior": "sleep", "seconds": 0.2 + 0.3 * i,
                      "tag": i}
        ).new[0] for i in range(6)]
        joins = [client.submit("probe", {"behavior": "echo", "tag": 100 + i},
                               depends_on=parents).new[0] for i in range(2)]

        # Kill once the drain has provably started (the kill may land
        # anywhere from mid-parents to after the joins -- the recovery
        # invariants below must hold regardless).
        deadline = time.monotonic() + 60.0
        while True:
            assert time.monotonic() < deadline, "drain never started"
            states = [client.job(p).state for p in parents]
            if states.count("DONE") >= 1:
                break
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=30)

        # Replacement coordinator: leases from the dead incarnation
        # expire, parents rerun, joins release exactly once.
        proc2, url2 = start_serve(tmp_path / "svc", workers=2)
        try:
            client2 = ServiceClient(url2)
            views = client2.wait(parents + joins, timeout=180)
            assert all(v.state == "DONE" for v in views.values())
        finally:
            proc2.send_signal(signal.SIGINT)
            proc2.communicate(timeout=30)

        service = Service(tmp_path / "svc")
        for jid in joins:
            # THE invariant: one release across both incarnations, no
            # matter where the kill landed.  (A join orphaned RUNNING by
            # the kill is legitimately re-claimed after requeue, so the
            # claim count is >= 1, not == 1.)
            assert len(_audit(service, "released", jid)) == 1
            assert len(_audit(service, "claimed", jid)) >= 1
        assert service.store.counts()["BLOCKED"] == 0
        assert service.store.outstanding() == 0
