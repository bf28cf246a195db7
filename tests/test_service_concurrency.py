"""Concurrency stress: many submitters, one queue, workers draining.

N threads submit overlapping sweeps against one :class:`Service` while
a resident worker pool drains the storm.  The guarantees under test:

* **no duplicate execution per content key** -- the atomic
  check-and-insert in :meth:`JobStore.add_batch` plus the pool's
  claim-time cache check mean each unique benchmark point launches at
  most one child process, ever;
* **no lost jobs** -- every receipt id resolves to a job, and every
  unique point ends DONE with a readable result;
* **store consistency after the storm** -- counts, rows, events, and
  cache all agree.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import (JobState, Service, Sweep, WorkerOptions,
                           payload_key)

N_THREADS = 8

# Three overlapping grids over the same small sim points: 6 unique
# content keys, submitted 8 x 3 = 24 times each wave.
SWEEPS = [
    Sweep(kind="sim", axes={"n": [256, 512], "nb": [32, 64]},
          base={"p": 2, "q": 2}),
    Sweep(kind="sim", axes={"n": [512, 1024], "nb": [64]},
          base={"p": 2, "q": 2}),
    Sweep(kind="sim", axes={"n": [256], "nb": [32, 64]},
          base={"p": 2, "q": 2}),
]


def _unique_keys() -> set[str]:
    keys = set()
    for sweep in SWEEPS:
        for payload in sweep.expand():
            keys.add(payload_key("sim", payload))
    return keys


@pytest.fixture
def service(tmp_path):
    return Service(tmp_path / "svc", backoff_base=0.01)


def _storm(service: Service) -> tuple[list, list[BaseException]]:
    """All threads submit all sweeps; returns (receipts, errors)."""
    receipts, errors = [], []
    barrier = threading.Barrier(N_THREADS)

    def submitter() -> None:
        try:
            barrier.wait(timeout=30)
            for sweep in SWEEPS:
                receipts.append(service.submit_sweep(sweep))
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=submitter) for _ in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    return receipts, errors


class TestSubmissionStorm:
    def test_no_duplicate_active_jobs_per_key(self, service):
        """Before anything runs: one queued job per unique point."""
        receipts, errors = _storm(service)
        assert not errors
        jobs = service.store.list()
        assert len(jobs) == len(_unique_keys())
        assert {j.key for j in jobs} == _unique_keys()
        assert all(j.state is JobState.PENDING for j in jobs)
        # Every submission resolved to some job id, none were lost.
        new = [jid for r in receipts for jid in r.new]
        deduped = [jid for r in receipts for jid in r.deduped]
        assert len(new) == len(_unique_keys())
        assert set(deduped) <= set(new)
        known = {j.id for j in jobs}
        for receipt in receipts:
            assert set(receipt.job_ids) <= known

    def test_storm_while_workers_drain(self, service):
        """Submitters race the pool; each key still executes once."""
        pool = service.worker_pool(WorkerOptions(n=2, drain=False))
        stop = threading.Event()
        worker = threading.Thread(
            target=pool.run, kwargs={"stop": stop}, daemon=True,
        )
        worker.start()
        try:
            all_receipts, all_errors = [], []
            for _ in range(3):  # three waves, later waves hit the cache
                receipts, errors = _storm(service)
                all_receipts += receipts
                all_errors += errors
            assert not all_errors

            deadline = threading.Event()
            for _ in range(600):  # wait out the drain, max 60s
                if not service.store.outstanding():
                    break
                deadline.wait(0.1)
            assert not service.store.outstanding(), "jobs left behind"
        finally:
            stop.set()
            worker.join(timeout=30)
        assert not worker.is_alive()

        keys = _unique_keys()

        # No duplicate execution: at most one child launch per key.
        jobs_by_id = {j.id: j for j in service.store.list()}
        launches_per_key: dict[str, int] = {}
        for event in service.store.events():
            if event["event"] == "launched":
                key = jobs_by_id[event["job"]].key
                launches_per_key[key] = launches_per_key.get(key, 0) + 1
        assert launches_per_key, "nothing ever ran"
        assert all(n == 1 for n in launches_per_key.values()), \
            launches_per_key

        # No lost jobs: every receipt id resolves and has a result.
        for receipt in all_receipts:
            for jid in receipt.job_ids:
                assert jid in jobs_by_id
                assert service.result(jid).result is not None

        # Store consistency: every row terminal-DONE, counts agree,
        # every unique point cached exactly once.
        counts = service.store.counts()
        assert counts["DONE"] == len(jobs_by_id)
        assert counts["PENDING"] == counts["RUNNING"] == 0
        assert counts["FAILED"] == counts["CANCELLED"] == 0
        assert {j.key for j in jobs_by_id.values()} == keys
        assert len(service.cache) == len(keys)
        for key in keys:
            assert key in service.cache

    def test_threaded_store_reads_share_one_handle(self, service):
        """Reads from many threads through one JobStore don't trip
        sqlite's same-thread check (regression for the per-process
        connection cache)."""
        service.submit("probe", {"behavior": "ok"})
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                for _ in range(50):
                    service.store.counts()
                    service.store.list()
                    service.status()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
