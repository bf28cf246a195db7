"""Result cache: content addressing, atomic storage, and submit-time reuse."""

from __future__ import annotations

import json
import os

from repro.config import canonical_json
from repro.service import JobState, ResultCache, Service, Sweep, payload_key
from repro.service.api import MAX_RESULT_BYTES

FACT_PAYLOAD = {"nb": 32, "thread_counts": [1, 2], "m_multiples": [1, 2]}


class TestPayloadKey:
    def test_insensitive_to_dict_ordering(self):
        a = payload_key("sim", {"n": 64, "nb": 8})
        b = payload_key("sim", {"nb": 8, "n": 64})
        assert a == b

    def test_kind_is_part_of_the_key(self):
        assert payload_key("sim", {"n": 64}) != payload_key("run", {"n": 64})

    def test_payload_content_is_part_of_the_key(self):
        assert payload_key("sim", {"n": 64}) != payload_key("sim", {"n": 65})


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 1.5})
        record = cache.get(key)
        assert record["result"] == {"score": 1.5}
        assert record["kind"] == "fact"
        assert key in cache
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"v": 1})
        cache.put(key, "fact", FACT_PAYLOAD, {"v": 2})
        assert cache.get(key)["result"] == {"v": 2}
        assert len(cache) == 1


    def test_a_result_at_the_limit_is_one_inline_record(self, tmp_path):
        """The largest accepted result round-trips through the record
        itself: no second file is written beside it."""
        cache = ResultCache(tmp_path)
        key = payload_key("probe", {"n": 1})
        big = {"blob": ""}
        big["blob"] = "y" * (MAX_RESULT_BYTES - len(canonical_json(big)))
        cache.put(key, "probe", {"n": 1}, big)
        assert cache.get(key)["result"] == big
        assert os.listdir(os.path.join(tmp_path, key[:2])) == \
            [f"{key}.json"]
        assert len(cache) == 1


def _earlier_release_blob_record(cache, key: str, payload: dict,
                                 kind: str = "probe") -> None:
    """What an earlier release left for a result it streamed: a record
    naming a ``<key>.result.json`` sidecar instead of the result."""
    blob = json.dumps({"blob": "z" * 64}).encode()
    shard = os.path.join(cache.root, key[:2])
    os.makedirs(shard, exist_ok=True)
    with open(os.path.join(shard, f"{key}.result.json"), "wb") as fh:
        fh.write(blob)
    with open(os.path.join(shard, f"{key}.json"), "w") as fh:
        json.dump({"key": key, "kind": kind, "payload": payload,
                   "result_blob": {"size": len(blob), "sha256": "0" * 64},
                   "stored_at": 0.0}, fh)


class TestEarlierReleaseFiles:
    """A workdir written by a release that streamed large results is
    left unread: its blob-backed records are misses, never half-hits."""

    PAYLOAD = {"behavior": "ok", "tag": "streamed-once"}

    def test_a_blob_backed_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("probe", self.PAYLOAD)
        _earlier_release_blob_record(cache, key, self.PAYLOAD)
        assert cache.get(key) is None
        assert key not in cache

    def test_a_sidecar_is_not_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = payload_key("probe", self.PAYLOAD)
        _earlier_release_blob_record(cache, key, self.PAYLOAD)
        assert len(cache) == 1
        cache.put(key, "probe", self.PAYLOAD, {"ok": True})
        assert len(cache) == 1

    def test_a_blob_backed_job_is_rerun_not_served(self, tmp_path):
        service = Service(tmp_path / "svc")
        key = payload_key("fact", FACT_PAYLOAD)
        _earlier_release_blob_record(service.cache, key, FACT_PAYLOAD,
                                     kind="fact")
        receipt = service.submit("fact", FACT_PAYLOAD)
        assert receipt.new and not receipt.cached
        assert service.run_workers(n=1, max_seconds=60).completed == 1
        view = service.result(receipt.new[0])
        assert view.ready and view.result == service.cache.get(key)["result"]


class TestCorruptionRecovery:
    """Regression: a half-written or corrupted cache file is a MISS.

    A crash between creat() and the final rename used to be able to
    leave bytes get() would crash on (json.JSONDecodeError escaping to
    every submit-time cache probe); any unreadable record must instead
    read as absent so the job simply re-runs.
    """

    def _put_one(self, cache) -> str:
        key = payload_key("fact", FACT_PAYLOAD)
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 1.5})
        return key

    def test_truncated_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        path = cache._path(key)
        with open(path, "rb") as fh:
            whole = fh.read()
        with open(path, "wb") as fh:
            fh.write(whole[:len(whole) // 2])  # torn write
        assert cache.get(key) is None

    def test_a_torn_record_is_rerun_not_served(self, tmp_path):
        """Submit-time reuse must not serve a record get() cannot read:
        that job would be DONE with a result never ready."""
        service = Service(tmp_path / "svc")
        key = self._put_one(service.cache)
        with open(service.cache._path(key), "w") as fh:
            fh.write("{torn")
        assert key not in service.cache
        receipt = service.submit("fact", FACT_PAYLOAD)
        assert receipt.new and not receipt.cached
        assert service.run_workers(n=1, max_seconds=60).completed == 1
        assert service.result(receipt.new[0]).ready

    def test_garbage_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        for garbage in (b"", b"\x00\xff\x00garbage", b'["not an object"]'):
            with open(cache._path(key), "wb") as fh:
                fh.write(garbage)
            assert cache.get(key) is None

    def test_corrupt_miss_recovers_on_next_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._put_one(cache)
        with open(cache._path(key), "wb") as fh:
            fh.write(b"{torn")
        assert cache.get(key) is None
        cache.put(key, "fact", FACT_PAYLOAD, {"score": 2.5})
        assert cache.get(key)["result"] == {"score": 2.5}


class TestSubmitTimeReuse:
    def test_identical_resubmission_is_served_from_cache(self, tmp_path):
        """Acceptance: resubmitting a completed config runs zero jobs."""
        service = Service(tmp_path / "svc")
        first = service.submit("fact", FACT_PAYLOAD)
        assert len(first.new) == 1
        summary = service.run_workers(n=1, max_seconds=60)
        assert summary.completed == 1

        claims_before = sum(
            1 for e in service.store.events() if e["event"] == "claimed"
        )
        again = service.submit("fact", FACT_PAYLOAD)
        assert again.cached and not again.new and not again.deduped
        # the cached job is DONE immediately, with the same result
        job = service.store.get(again.cached[0])
        assert job.state is JobState.DONE
        assert job.cached is True
        assert service.result(again.cached[0]).result == service.result(first.new[0]).result
        # and nothing new ever entered RUNNING
        claims_after = sum(
            1 for e in service.store.events() if e["event"] == "claimed"
        )
        assert claims_after == claims_before

    def test_sweep_resubmission_is_all_cache_hits(self, tmp_path):
        service = Service(tmp_path / "svc")
        sweep = Sweep(
            kind="fact",
            axes={"nb": [16, 32, 64]},
            base={"thread_counts": [1, 2], "m_multiples": [1, 2]},
        )
        first = service.submit_sweep(sweep)
        assert len(first.new) == 3
        service.run_workers(n=2, max_seconds=60)

        again = service.submit_sweep(sweep)
        assert len(again.cached) == 3
        assert not again.new and not again.deduped
        counts = service.store.counts()
        assert counts["RUNNING"] == 0 and counts["PENDING"] == 0

    def test_different_payload_misses_the_cache(self, tmp_path):
        service = Service(tmp_path / "svc")
        service.submit("fact", FACT_PAYLOAD)
        service.run_workers(n=1, max_seconds=60)
        other = service.submit("fact", {**FACT_PAYLOAD, "nb": 48})
        assert other.new and not other.cached
