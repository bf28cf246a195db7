"""ShardedStore units: routing, spanning leases, degradation, CLI.

The tentpole's contract, piece by piece:

* the router is deterministic and stable (same key -> same shard, also
  after closing and reopening the store);
* content-key dedup stays shard-local and still race-free;
* one ``claim_batch`` call spans shards under ONE logical lease id, and
  heartbeat/complete/fail work against it exactly as against a single
  store;
* a dead worker's jobs are requeued exactly once, on the shard they
  already live on (rows never migrate);
* merged ``list`` pages reproduce the single-store ``(created, id)``
  order and window semantics;
* a wedged (locked) shard degrades *that shard only* -- sweeps and
  reads skip it, targeted writes raise ``ShardUnavailableError`` (503),
  healthz reports it in ``degraded``, and the other shards keep
  claiming and completing;
* ``repro shards`` renders per-shard depth/lease figures.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main
from repro.errors import (
    LeaseExpiredError,
    ServiceError,
    ShardUnavailableError,
    UnknownJobError,
)
from repro.service import (
    Job,
    JobState,
    JobStore,
    Service,
    ShardedStore,
    detect_shard_workdirs,
    new_job_id,
    shard_index,
    shard_workdirs,
)
from repro.service.http import ServiceHTTPServer


def _job(key: str, kind: str = "probe", created: float = 0.0, **kw) -> Job:
    return Job(id=new_job_id(), kind=kind, payload={"k": key}, key=key,
               created=created, **kw)


def _key_for_shard(target: int, nshards: int, prefix: str = "key") -> str:
    """A content key that routes to shard ``target``."""
    i = 0
    while True:
        key = f"{prefix}-{i}"
        if shard_index(key, nshards) == target:
            return key
        i += 1


@pytest.fixture
def sharded(tmp_path):
    store = ShardedStore(shard_workdirs(tmp_path / "svc", 3))
    yield store
    store.close()


class TestRouter:
    def test_index_is_deterministic_and_in_range(self):
        for key in ("", "a", "config-key", "x" * 200):
            for n in (1, 2, 3, 7):
                i = shard_index(key, n)
                assert 0 <= i < n
                assert i == shard_index(key, n)

    def test_everything_routes_to_shard_zero_of_one(self):
        # The migration rule: a single-workdir store is shard 0 of 1.
        assert all(shard_index(f"k{i}", 1) == 0 for i in range(50))

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ServiceError):
            shard_index("k", 0)
        with pytest.raises(ServiceError):
            shard_workdirs("root", 0)

    def test_workdir_layout_roundtrips_through_detection(self, tmp_path):
        paths = shard_workdirs(tmp_path / "svc", 3)
        assert len(paths) == 3 and len(set(paths)) == 3
        ShardedStore(paths).close()  # creates the directories
        assert detect_shard_workdirs(tmp_path / "svc") == sorted(paths)
        # A plain workdir detects as its own single shard.
        JobStore(tmp_path / "plain").close()
        assert detect_shard_workdirs(tmp_path / "plain") == \
            [str(tmp_path / "plain")]

    def test_single_workdir_store_is_shard_zero_of_one(self, tmp_path):
        # Point ShardedStore at an existing plain workdir: same queue.
        plain = JobStore(tmp_path / "svc")
        jid = plain.add(_job("k1")).id
        wrapped = ShardedStore([tmp_path / "svc"])
        assert wrapped.get(jid).key == "k1"
        assert wrapped.counts()["PENDING"] == 1


class TestShardedStoreBasics:
    def test_jobs_land_on_their_routed_shard(self, sharded):
        for i in range(12):
            job = _job(f"key-{i}")
            sharded.add(job)
            expected = sharded.shards[shard_index(job.key, 3)]
            assert expected.get(job.id).id == job.id
            others = [s for s in sharded.shards if s is not expected]
            for other in others:
                with pytest.raises(UnknownJobError):
                    other.get(job.id)

    def test_duplicate_workdirs_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="duplicate"):
            ShardedStore([tmp_path / "a", tmp_path / "a"])

    def test_dedup_is_shard_local_and_still_atomic(self, sharded):
        job = _job("same-key")
        first = sharded.add(job, dedup=True)
        assert first.id == job.id
        assert sharded.add(_job("same-key"), dedup=True).id == first.id
        assert sharded.count_matching() == 1

    def test_id_operations_probe_shards(self, sharded):
        jid = sharded.add(_job("k1")).id
        assert sharded.get(jid).id == jid
        assert sharded.cancel(jid) is True
        assert sharded.get(jid).state is JobState.CANCELLED
        with pytest.raises(UnknownJobError):
            sharded.get("nosuchjob")
        assert sharded.cancel("nosuchjob") is False

    def test_routing_is_stable_across_reopen(self, tmp_path):
        paths = shard_workdirs(tmp_path / "svc", 3)
        store = ShardedStore(paths)
        placed = {}
        for i in range(10):
            job = _job(f"key-{i}")
            store.add(job)
            placed[job.key] = job.id
        store.close()
        reopened = ShardedStore(paths)
        for key, jid in placed.items():
            # The key's shard still finds it directly -- no probe needed.
            assert reopened.shard_for_key(key).get(jid).key == key
        reopened.close()


class TestSpanningLease:
    def test_one_lease_id_spans_shards(self, sharded):
        ids = {sharded.add(_job(f"key-{i}", created=float(i))).id
               for i in range(9)}
        lease, jobs = sharded.claim_batch("w1", limit=9, ttl=30.0,
                                          now=100.0)
        assert lease is not None and {j.id for j in jobs} == ids
        assert all(j.lease_id == lease.id for j in jobs)
        # Every participating shard holds its own row under that id.
        holders = [s for s in sharded.shards
                   if s.get_lease(lease.id) is not None]
        assert len(holders) == len({shard_index(j.key, 3) for j in jobs})
        assert sharded.get_lease(lease.id) is not None
        # Nothing ready -> no empty lease.
        assert sharded.claim_batch("w2", limit=4, now=101.0) == (None, [])

    def test_heartbeat_extends_every_shard_portion(self, sharded):
        for i in range(6):
            sharded.add(_job(f"key-{i}"))
        lease, jobs = sharded.claim_batch("w1", limit=6, ttl=30.0,
                                          now=100.0)
        extended = sharded.heartbeat_lease(lease.id, ttl=50.0, now=120.0)
        assert extended.expires == pytest.approx(170.0)
        for job in jobs:
            assert sharded.get(job.id).lease_expires == pytest.approx(170.0)
        with pytest.raises(LeaseExpiredError):
            sharded.heartbeat_lease("nosuchlease", ttl=1.0)
        with pytest.raises(LeaseExpiredError):
            sharded.heartbeat_lease(lease.id, ttl=1.0, now=9999.0)

    def test_complete_and_fail_route_by_job_id(self, sharded):
        for i in range(4):
            sharded.add(_job(f"key-{i}"))
        lease, jobs = sharded.claim_batch("w1", limit=4, ttl=30.0)
        done = sharded.complete_leased(jobs[0].id, lease.id, "rkey")
        assert done.state is JobState.DONE
        retried = sharded.fail_leased(jobs[1].id, lease.id, "boom",
                                      backoff_base=0.0)
        assert retried.state is JobState.PENDING
        with pytest.raises(UnknownJobError):
            sharded.complete_leased("nosuchjob", lease.id, "rkey")

    def test_expiry_requeues_exactly_once_on_the_same_shard(self, sharded):
        jobs = [sharded.add(_job(f"key-{i}")) for i in range(9)]
        lease, claimed = sharded.claim_batch("w1", limit=9, ttl=1.0,
                                             now=100.0)
        assert len(claimed) == 9
        recovered = sharded.expire_leases(now=200.0)
        assert {j.id for j in recovered} == {j.id for j in jobs}
        # Exactly once: the second sweep finds nothing.
        assert sharded.expire_leases(now=200.0) == []
        assert sharded.get_lease(lease.id) is None
        # Same shard: every requeued row still lives where its key routes.
        for job in jobs:
            home = sharded.shards[shard_index(job.key, 3)]
            assert home.get(job.id).state is JobState.PENDING
        # Audit: one lease_expired per job, across the merged logs.
        expiries = [e for e in sharded.events()
                    if e["event"] == "lease_expired"]
        assert len(expiries) == 9
        assert {e["job"] for e in expiries} == {j.id for j in jobs}

    def test_round_robin_start_spreads_single_claims(self, sharded):
        # One job per shard; three limit-1 claims each start on a
        # different shard, so all three jobs go out in three calls.
        for target in range(3):
            sharded.add(_job(_key_for_shard(target, 3)))
        claimed = []
        for w in range(3):
            _, jobs = sharded.claim_batch(f"w{w}", limit=1, ttl=30.0)
            claimed.extend(jobs)
        assert len(claimed) == 3
        assert len({shard_index(j.key, 3) for j in claimed}) == 3


class TestMergedPages:
    def _seed_both(self, tmp_path, jobs):
        single = JobStore(tmp_path / "single")
        sharded = ShardedStore(shard_workdirs(tmp_path / "svc", 3))
        for job in jobs:
            single.add(Job(**vars(job)))
            sharded.add(Job(**vars(job)))
        return single, sharded

    def test_merged_list_equals_single_store_page(self, tmp_path):
        jobs = [_job(f"key-{i}", kind="probe" if i % 2 else "sim",
                     created=float(100 - i)) for i in range(20)]
        single, sharded = self._seed_both(tmp_path, jobs)
        for kwargs in (
            {},
            {"limit": 5},
            {"limit": 5, "offset": 3},
            {"limit": 0},
            {"offset": 18},
            {"kind": "sim"},
            {"kind": "sim", "limit": 3, "offset": 2},
            {"state": JobState.PENDING, "limit": 7},
        ):
            expect = [(j.id, j.created) for j in single.list(**kwargs)]
            got = [(j.id, j.created) for j in sharded.list(**kwargs)]
            assert got == expect, kwargs

    def test_counts_and_totals_are_global(self, tmp_path):
        jobs = [_job(f"key-{i}", created=float(i)) for i in range(10)]
        single, sharded = self._seed_both(tmp_path, jobs)
        assert sharded.counts() == single.counts()
        assert sharded.count_matching() == 10
        assert sharded.outstanding() == single.outstanding()

    def test_junk_state_filter_raises_like_single_store(self, sharded):
        with pytest.raises(ValueError):
            sharded.list(state="NOTASTATE")


@pytest.fixture
def wedged(tmp_path):
    """A 3-shard store whose shard 0 is locked by a hung writer."""
    paths = shard_workdirs(tmp_path / "svc", 3)
    store = ShardedStore(paths, busy_timeout=0.2)
    jobs = [store.add(_job(f"key-{i}")) for i in range(9)]
    blocker = sqlite3.connect(store.shards[0].db_path)
    blocker.isolation_level = None
    blocker.execute("BEGIN EXCLUSIVE")
    yield store, paths, jobs
    blocker.execute("ROLLBACK")
    blocker.close()
    store.close()


class TestGracefulDegradation:
    def test_wedged_shard_degrades_that_shard_only(self, wedged):
        store, paths, jobs = wedged
        healthy = [j for j in jobs if shard_index(j.key, 3) != 0]
        assert 0 < len(healthy) < len(jobs)  # shard 0 holds some jobs
        # Reads, counts, and the expiry sweep skip the wedged shard.
        assert {j.id for j in store.list()} == {j.id for j in healthy}
        assert store.counts()["PENDING"] == len(healthy)
        assert store.expire_leases() == []
        # Claims come from the healthy shards; the lease still works.
        lease, jobs = store.claim_batch("w1", limit=9, ttl=30.0)
        assert {j.id for j in jobs} == {j.id for j in healthy}
        done = store.complete_leased(jobs[0].id, lease.id, "rkey")
        assert done.state is JobState.DONE
        # A write routed to the wedged shard is a typed 503.
        bad_key = _key_for_shard(0, 3)
        with pytest.raises(ShardUnavailableError) as excinfo:
            store.add(_job(bad_key))
        assert excinfo.value.http_status == 503
        assert excinfo.value.code == "shard_unavailable"
        with pytest.raises(ShardUnavailableError):
            store.add(_job(bad_key), dedup=True)
        # A healthy-shard write still lands.
        good_key = _key_for_shard(1, 3)
        assert store.add(_job(good_key)).key == good_key

    def test_shard_stats_flags_the_wedged_shard(self, wedged):
        store, _, _ = wedged
        stats = store.shard_stats()
        assert [s["index"] for s in stats] == [0, 1, 2]
        assert stats[0]["ok"] is False and "error" in stats[0]
        for entry in stats[1:]:
            assert entry["ok"] is True
            assert entry["counts"]["PENDING"] == entry["outstanding"]
            assert entry["leases"] == 0

    def test_healthz_reports_degraded_shards(self, tmp_path):
        import json
        import urllib.request

        # Wedge a shard while the server is live: the next healthz must
        # flag exactly that shard and stay a 200 (the probe itself
        # cannot go dark because one shard did).
        with ServiceHTTPServer(tmp_path / "svc", workers=0, shards=3,
                               busy_timeout=0.2) as srv:
            wedged_dir = srv.service.store.workdirs[0]
            blocker = sqlite3.connect(srv.service.store.shards[0].db_path)
            blocker.isolation_level = None
            blocker.execute("BEGIN EXCLUSIVE")
            try:
                with urllib.request.urlopen(srv.url + "/v1/healthz",
                                            timeout=30) as resp:
                    health = json.loads(resp.read())
            finally:
                blocker.execute("ROLLBACK")
                blocker.close()
            with urllib.request.urlopen(srv.url + "/v1/healthz",
                                        timeout=30) as resp:
                recovered = json.loads(resp.read())
        assert health["nshards"] == 3
        assert health["ok"] is False
        assert health["degraded"] == [wedged_dir]
        assert [s["ok"] for s in health["shards"]] == [False, True, True]
        # Once the lock is released, the same shard reports healthy.
        assert recovered["ok"] is True and recovered["degraded"] == []


class TestShardStatsHealthy:
    def test_stats_count_depth_and_live_leases(self, sharded):
        for i in range(6):
            sharded.add(_job(f"key-{i}"))
        lease, jobs = sharded.claim_batch("w1", limit=2, ttl=30.0)
        stats = sharded.shard_stats()
        assert sum(s["counts"]["PENDING"] for s in stats) == 4
        assert sum(s["counts"]["RUNNING"] for s in stats) == 2
        assert sum(s["leases"] for s in stats) == \
            len({shard_index(j.key, 3) for j in jobs})
        assert all(s["ok"] for s in stats)

    def test_unsharded_service_reports_one_shard(self, tmp_path):
        service = Service(tmp_path / "svc")
        service.submit("probe", {"behavior": "ok"})
        assert service.nshards == 1
        (entry,) = service.shard_stats()
        assert entry["ok"] and entry["counts"]["PENDING"] == 1
        assert entry["workdir"] == str(tmp_path / "svc")


class TestShardsCLI:
    def test_local_shard_table(self, tmp_path, capsys):
        root = tmp_path / "svc"
        service = Service(root, shards=3)
        for i in range(7):
            service.submit("probe", {"behavior": "ok", "tag": i})
        assert main(["shards", "--workdir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out
        lines = [ln for ln in out.splitlines() if ln
                 and ln[0].isdigit()]
        assert len(lines) == 3
        # Column 3 is the PENDING depth (after blocked); the shards
        # sum to the queue.
        assert sum(int(ln.split()[2]) for ln in lines) == 7
        # Column 2 is the new BLOCKED depth -- zero for a flat sweep.
        assert sum(int(ln.split()[1]) for ln in lines) == 0

    def test_remote_shard_table_via_healthz(self, tmp_path, capsys):
        with ServiceHTTPServer(tmp_path / "svc", workers=0,
                               shards=3) as srv:
            assert main(["shards", "--url", srv.url]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out and srv.url in out


class TestServiceShardSelection:
    def test_serve_rejects_shards_with_repeated_workdirs(self, tmp_path,
                                                         capsys):
        rc = main(["serve", "--workdir", str(tmp_path / "a"),
                   "--workdir", str(tmp_path / "b"), "--shards", "2",
                   "--port", "0", "--workers", "0"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_explicit_workdir_list_becomes_shards(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("a", "b", "c")]
        service = Service(dirs[0], shard_workdirs=dirs)
        assert service.nshards == 3
        assert [s["workdir"] for s in service.shard_stats()] == dirs
