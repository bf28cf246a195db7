"""Job store: claims, transitions, and persistence across restarts."""

from __future__ import annotations

import pytest

from repro.errors import UnknownJobError
from repro.service import Job, JobState, JobStore
from repro.service.cache import payload_key

from .conftest import claim_one


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
