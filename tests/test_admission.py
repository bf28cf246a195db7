"""Admission control, the 429 contract, healthz depths, wait deadlines.

Four claims pinned here:

* **Token bucket / controller units** -- refill math, burst caps,
  per-client isolation, idle eviction bounding memory, depth-cache TTL.
* **The 429 wire contract** -- past the watermark submits fail with
  ``overloaded`` + a ``Retry-After`` header while reads, cancels, and
  leases keep working; per-client buckets reject with ``rate_limited``;
  clients retry transparently and a storm never turns into a 500.
* **healthz queue depths under concurrent submits** -- each figure is
  one consistent ``GROUP BY state`` snapshot, so depths are never
  negative, never double-count, and the total is monotone under a
  submit-only workload, ending exactly at the number submitted.
* **``wait()`` deadline** -- the long-poll budget is clamped to the
  time remaining, so a short timeout cannot overshoot by a full
  long-poll step (both the sync and asyncio clients).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import (
    BackpressureError,
    OverloadedError,
    RateLimitedError,
)
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.http import (
    AsyncServiceClient,
    ServiceClient,
    ServiceHTTPServer,
    WaitTimeout,
)

pytestmark = pytest.mark.dedicated


def _probe(i, tag="t"):
    return {"behavior": "ok", "tag": f"{tag}{i}"}


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert bucket.take(now=0.0) == 0.0
        assert bucket.take(now=0.0) == 0.0
        assert bucket.take(now=0.0) == 0.0
        wait = bucket.take(now=0.0)
        assert wait == pytest.approx(0.1)
        # After the hinted wait, exactly one token is available again.
        assert bucket.take(now=0.11) == 0.0
        assert bucket.take(now=0.11) > 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.take(now=1000.0) == 0.0
        assert bucket.take(now=1000.0) == 0.0
        assert bucket.take(now=1000.0) > 0.0

    def test_refusal_spends_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=0.0)
        assert bucket.take(now=0.0) == 0.0
        w1 = bucket.take(now=0.0)
        w2 = bucket.take(now=0.0)
        assert w1 == pytest.approx(1.0)
        assert w2 == pytest.approx(1.0)

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, now=0.0)
        assert bucket.take(now=0.0) == 0.0
        assert bucket.take(now=1e9) == float("inf")


class TestAdmissionController:
    def test_disabled_gates_admit_everything(self):
        ctl = AdmissionController()
        for i in range(1000):
            ctl.check_submit("c", lambda: 10**9)

    def test_watermark_rejects_with_retry_after(self):
        ctl = AdmissionController(max_queue_depth=5, depth_ttl=0.0,
                                  retry_after=2.5)
        ctl.check_submit("c", lambda: 4)
        with pytest.raises(OverloadedError) as err:
            ctl.check_submit("c", lambda: 5)
        assert err.value.retry_after == 2.5
        assert err.value.code == "overloaded"
        assert err.value.http_status == 429
        assert ctl.stats()["rejected_overloaded"] == 1

    def test_depth_cache_respects_ttl(self):
        reads = []

        def outstanding():
            reads.append(1)
            return 0

        ctl = AdmissionController(max_queue_depth=10, depth_ttl=60.0)
        for _ in range(50):
            ctl.check_submit("c", outstanding)
        assert len(reads) == 1  # one scan per TTL window, not per request

    def test_note_enqueued_advances_cached_depth(self):
        ctl = AdmissionController(max_queue_depth=5, depth_ttl=60.0)
        ctl.check_submit("c", lambda: 0)
        ctl.note_enqueued(5)  # cached figure now at the watermark
        with pytest.raises(OverloadedError):
            ctl.check_submit("c", lambda: 0)

    def test_per_client_buckets_are_independent(self):
        ctl = AdmissionController(rate_limit=1.0, rate_burst=1.0)
        ctl.check_submit("a", lambda: 0)
        with pytest.raises(RateLimitedError) as err:
            ctl.check_submit("a", lambda: 0)
        assert err.value.code == "rate_limited"
        assert err.value.retry_after > 0
        ctl.check_submit("b", lambda: 0)  # other client unaffected
        assert ctl.stats()["rejected_rate_limited"] == 1

    def test_rate_check_runs_before_depth_scan(self):
        # A hammering client must not trigger depth reads.
        ctl = AdmissionController(max_queue_depth=10, rate_limit=1.0,
                                  rate_burst=1.0, depth_ttl=0.0)
        ctl.check_submit("a", lambda: 0)
        with pytest.raises(RateLimitedError):
            ctl.check_submit("a", lambda: (_ for _ in ()).throw(
                AssertionError("depth scanned for a rate-limited client")))

    def test_bucket_eviction_bounds_memory(self):
        from repro.service import admission

        ctl = AdmissionController(rate_limit=100.0)
        cap = admission._MAX_CLIENTS
        for i in range(cap + 50):
            ctl.check_submit(f"c{i}", lambda: 0)
        assert len(ctl._buckets) <= cap

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionController(rate_limit=-0.5)


@pytest.fixture()
def watermark_server(tmp_path):
    with ServiceHTTPServer(tmp_path / "svc", workers=0,
                           max_queue_depth=5) as srv:
        srv.admission.depth_ttl = 0.0  # exact watermark for the test
        yield srv


class TestOverloadedWire:
    def test_429_overloaded_with_retry_after_header(self, watermark_server):
        client = ServiceClient(watermark_server.url, retry_429=0)
        for i in range(5):
            client.submit("probe", _probe(i))
        with pytest.raises(OverloadedError) as err:
            client.submit("probe", _probe(99))
        assert err.value.retry_after >= 1.0  # header parsed back
        # Batch and sweep submits hit the same gate.
        with pytest.raises(OverloadedError):
            client.submit_many(
                [{"kind": "probe", "payload": _probe(100)}])
        with pytest.raises(OverloadedError):
            client.submit_sweep(
                {"kind": "probe", "axes": {"tag": [1, 2]},
                 "base": {"behavior": "ok"}})

    def test_reads_cancels_and_leases_never_gated(self, watermark_server):
        client = ServiceClient(watermark_server.url, retry_429=0)
        jid = client.submit("probe", _probe(0)).new[0]
        for i in range(1, 5):
            client.submit("probe", _probe(i))
        with pytest.raises(OverloadedError):
            client.submit("probe", _probe(99))
        # Observation and relief traffic still flows.
        assert client.healthz()["queue"]["PENDING"] == 5
        assert client.status().counts["PENDING"] == 5
        assert client.job(jid).state == "PENDING"
        lease, jobs = client.claim_jobs("w1", n=2)
        assert lease is not None and len(jobs) == 2
        assert client.cancel_job(jid)[0] in (True, False)

    def test_draining_below_watermark_readmits(self, watermark_server):
        client = ServiceClient(watermark_server.url, retry_429=0)
        ids = [client.submit("probe", _probe(i)).new[0] for i in range(5)]
        with pytest.raises(OverloadedError):
            client.submit("probe", _probe(99))
        for jid in ids[:3]:
            client.cancel_job(jid)
        receipt = client.submit("probe", _probe(99))  # now admitted
        assert len(receipt.new) == 1

    def test_transparent_retry_succeeds_after_drain(self, watermark_server):
        client = ServiceClient(watermark_server.url, retry_429=0)
        ids = [client.submit("probe", _probe(i)).new[0] for i in range(5)]
        releaser = threading.Timer(
            0.5, lambda: [client.cancel_job(j) for j in ids])
        releaser.start()
        try:
            retrying = ServiceClient(watermark_server.url, retry_429=10,
                                     retry_429_cap=0.3)
            receipt = retrying.submit("probe", _probe(7))
            assert len(receipt.new) == 1  # retried through the 429s
        finally:
            releaser.join()

    def test_healthz_reports_admission_stats(self, watermark_server):
        client = ServiceClient(watermark_server.url, retry_429=0)
        for i in range(5):
            client.submit("probe", _probe(i))
        for _ in range(3):
            with pytest.raises(OverloadedError):
                client.submit("probe", _probe(99))
        stats = client.healthz()["admission"]
        assert stats["max_queue_depth"] == 5
        assert stats["rejected_overloaded"] == 3


class TestRateLimitedWire:
    def test_per_client_429_and_other_clients_unaffected(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               rate_limit=0.5, rate_burst=2) as srv:
            fast = ServiceClient(srv.url, retry_429=0)
            fast.submit("probe", _probe(1))
            fast.submit("probe", _probe(2))
            with pytest.raises(RateLimitedError) as err:
                fast.submit("probe", _probe(3))
            assert err.value.retry_after >= 1.0
            # A different X-Client-Id has its own bucket.
            other = ServiceClient(srv.url, retry_429=0)
            assert other.client_id != fast.client_id
            assert len(other.submit("probe", _probe(4)).new) == 1
            # Reads are never rate limited.
            for _ in range(10):
                srv_stats = fast.healthz()
            assert srv_stats["admission"]["rate_limit"] == 0.5

    def test_storm_never_500s(self, tmp_path):
        """A storm well past both gates yields only 200s and 429s."""
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               max_queue_depth=10, rate_limit=20.0,
                               rate_burst=5) as srv:
            codes: list[int] = []

            def slam(worker: int) -> None:
                client = ServiceClient(srv.url, retry_429=0,
                                       client_id=f"w{worker}")
                for i in range(40):
                    try:
                        client.submit("probe", _probe(i, tag=f"w{worker}-"))
                        codes.append(200)
                    except BackpressureError:
                        codes.append(429)

            threads = [threading.Thread(target=slam, args=(w,))
                       for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(codes) == 160
            assert codes.count(429) > 0  # the gates actually fired
            assert codes.count(200) + codes.count(429) == 160


class TestHealthzDepthSnapshots:
    """The /v1/healthz queue-depth semantics under concurrent submits."""

    PER_THREAD = 25
    THREADS = 4

    def test_depths_never_negative_or_double_counted(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
            stop = threading.Event()
            observations: list[dict] = []
            failures: list[str] = []

            def poll() -> None:
                client = ServiceClient(srv.url)
                while not stop.is_set():
                    observations.append(client.healthz()["queue"])

            def submit(worker: int) -> None:
                client = ServiceClient(srv.url)
                try:
                    for i in range(self.PER_THREAD):
                        client.submit("probe", _probe(i, tag=f"w{worker}-"))
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"w{worker}: {exc}")

            poller = threading.Thread(target=poll)
            poller.start()
            submitters = [threading.Thread(target=submit, args=(w,))
                          for w in range(self.THREADS)]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join()
            final = ServiceClient(srv.url).healthz()["queue"]
            stop.set()
            poller.join()

            assert not failures, failures
            total_jobs = self.PER_THREAD * self.THREADS
            # Submit-only workload: every observation is non-negative,
            # totals never exceed what was truly submitted (a job is
            # never double-counted), and the total is monotone.
            last_total = 0
            for obs in observations:
                assert all(n >= 0 for n in obs.values()), obs
                total = sum(obs.values())
                assert total <= total_jobs, obs
                assert total >= last_total, (
                    f"total went backwards: {last_total} ->"
                    f" {total}")
                last_total = total
            assert sum(final.values()) == total_jobs
            assert final["PENDING"] == total_jobs


class TestWaitDeadlineClamp:
    """A wait() timeout is honored although one long-poll step is 15 s."""

    TIMEOUT = 0.4

    def test_sync_wait_does_not_overshoot_deadline(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
            client = ServiceClient(srv.url)
            jid = client.submit("probe", _probe(0)).new[0]  # never runs
            t0 = time.monotonic()
            with pytest.raises(WaitTimeout) as err:
                client.wait([jid], timeout=self.TIMEOUT)
            elapsed = time.monotonic() - t0
            assert err.value.outstanding == [jid]
            assert elapsed < 1.5, f"overshot the deadline: {elapsed:.2f}s"

    def test_async_wait_does_not_overshoot_deadline(self, tmp_path):
        with ServiceHTTPServer(tmp_path / "svc", workers=0) as srv:
            async def scenario() -> float:
                client = AsyncServiceClient(srv.url)
                receipt = await client.submit("probe", _probe(0))
                t0 = time.monotonic()
                with pytest.raises(WaitTimeout):
                    await client.wait(receipt.new, timeout=self.TIMEOUT)
                return time.monotonic() - t0

            elapsed = asyncio.run(scenario())
            assert elapsed < 1.5, f"overshot the deadline: {elapsed:.2f}s"
