"""Batch-submit chaos: SIGKILL the coordinator mid-``/v1/jobs/batch``.

The batch endpoint commits in one transaction, so a coordinator killed
partway through a large batch leaves either all of it or none of it.
What must never happen, and what this suite proves with a real
``repro serve`` subprocess and a real SIGKILL:

* after restart, **the store holds no two active jobs for one content
  key** (a landed batch never manifests as duplicates);
* **resubmitting the identical batch dedups cleanly**: one round-trip
  later every point of the sweep is active exactly once, whether its
  first copy survived the crash or not -- which is why a client may
  blindly retry a batch whose connection died.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.service import JobState, Service
from repro.service.cache import payload_key
from repro.service.http import ServiceClient

from .conftest import start_serve, stop

pytestmark = pytest.mark.dedicated

NJOBS = 2000


def _batch():
    return [{"kind": "sim",
             "payload": {"n": 256 * (i + 1), "nb": 64, "p": 2, "q": 2}}
            for i in range(NJOBS)]


class TestSigkilledCoordinatorMidBatch:
    def test_partial_batch_never_duplicates_and_resubmit_dedups(
            self, tmp_path):
        submissions = _batch()
        proc, url = start_serve(tmp_path / "svc")
        outcome: dict = {}

        def submit_batch() -> None:
            try:
                client = ServiceClient(url, timeout=60.0)
                outcome["receipts"] = client.submit_many(submissions)
            except Exception as exc:  # noqa: BLE001 - the point
                outcome["error"] = exc

        try:
            thread = threading.Thread(target=submit_batch)
            thread.start()
            # Let the request reach the insert transaction, then yank
            # the coordinator out from under it.
            time.sleep(0.15)
            proc.kill()
            proc.wait(timeout=30)
            thread.join(timeout=120)
            assert not thread.is_alive(), "batch submit never returned"
        finally:
            stop(proc)

        # Offline audit of whatever survived: no key is active twice,
        # no matter where the kill landed.
        expected_keys = {payload_key("sim", s["payload"])
                         for s in submissions}
        service = Service(tmp_path / "svc")
        survivors = self._active_by_key(service)
        assert set(survivors) <= expected_keys
        assert {k: v for k, v in survivors.items() if len(v) > 1} == {}
        service.store.close()

        # A fresh coordinator over the same workdir accepts a blind
        # retry of the identical batch in one round-trip.
        proc2, url2 = start_serve(tmp_path / "svc")
        try:
            client2 = ServiceClient(url2, timeout=120.0)
            receipts = client2.submit_many(submissions)
        finally:
            proc2.send_signal(signal.SIGINT)
            proc2.communicate(timeout=30)

        assert len(receipts) == NJOBS
        new = sum(len(r.new) for r in receipts)
        deduped = sum(len(r.deduped) for r in receipts)
        assert new + deduped == NJOBS  # every point exactly once
        assert deduped == len(survivors)  # survivors dedup, gaps refill

        service = Service(tmp_path / "svc")
        active = self._active_by_key(service)
        assert set(active) == expected_keys
        assert {k: v for k, v in active.items() if len(v) > 1} == {}
        service.store.close()

    @staticmethod
    def _active_by_key(service) -> dict[str, list[str]]:
        active: dict[str, list[str]] = {}
        for job in service.store.list():
            if job.state in (JobState.BLOCKED, JobState.PENDING,
                             JobState.RUNNING):
                active.setdefault(job.key, []).append(job.id)
        return active
