"""Unit coverage for dependency-aware release (repro.service.dag).

Drives the store and resolver directly -- no worker processes, no HTTP
-- so every ordering is deterministic: parents are leased and finished
with ``complete_leased``/``fail_leased`` and the terminal hook (installed by
:class:`Service`) must do the rest.  The audit log is the oracle for
exactly-once claims: ``released`` and ``parent_failed`` events are
written only by the guarded UPDATE's single winner.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    CycleError,
    ServiceError,
    UnknownJobError,
    UnknownParentError,
)
from repro.service import (
    JobState,
    Service,
    Sweep,
    payload_key,
)
from repro.service.dag import (
    has_placeholders,
    needs_parent_results,
    resolve_payload,
    toposort,
)
from repro.service.workers import WorkerOptions

from .conftest import claim_one

pytestmark = pytest.mark.dedicated


def _done(store, job):
    return store.complete_leased(job.id, job.lease_id, "rk")


def _failed(store, job):
    """Fail a leased job submitted with ``max_retries=0`` for good."""
    job = store.fail_leased(job.id, job.lease_id, "boom")
    assert job.state is JobState.FAILED
    return job


def _events(service, name, job_id=None):
    return [e for e in service.store.events()
            if e["event"] == name and (job_id is None or e["job"] == job_id)]


def _submit(service, tag, depends_on=(), max_retries=2, **payload):
    receipt = service.submit("probe",
                             {"behavior": "echo", "tag": tag, **payload},
                             depends_on=list(depends_on),
                             max_retries=max_retries)
    return (receipt.new or receipt.cached or receipt.deduped)[0]


class TestBlockedSubmission:
    def test_child_starts_blocked_and_releases_on_parent_done(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 1)
        child = _submit(svc, 2, depends_on=[parent])
        assert svc.store.get(child).state is JobState.BLOCKED
        assert svc.store.get(child).depends_on == [parent]

        claimed = claim_one(svc.store)
        assert claimed.id == parent
        _done(svc.store, claimed)
        assert svc.store.get(child).state is JobState.PENDING
        assert len(_events(svc, "released", child)) == 1

    def test_child_of_done_parent_starts_pending(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 1)
        _done(svc.store, claim_one(svc.store))
        child = _submit(svc, 2, depends_on=[parent])
        assert svc.store.get(child).state is JobState.PENDING

    def test_child_of_failed_parent_is_cancelled_at_submit(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 1, max_retries=0)
        _failed(svc.store, claim_one(svc.store))
        child = _submit(svc, 2, depends_on=[parent])
        assert svc.store.get(child).state is JobState.CANCELLED
        assert len(_events(svc, "parent_failed", child)) == 1

    def test_unknown_parent_rejected_before_enqueue(self, tmp_path):
        svc = Service(tmp_path / "svc")
        before = svc.store.counts()
        with pytest.raises(UnknownParentError,
                           match="unknown parent job: nope"):
            _submit(svc, 1, depends_on=["nope"])
        assert svc.store.counts() == before

    @pytest.mark.parametrize("parents_done", [False, True])
    def test_a_stage_reads_each_parent_once(self, tmp_path, monkeypatch,
                                            parents_done):
        svc = Service(tmp_path / "svc")
        parents = [_submit(svc, i) for i in range(3)]
        if parents_done:
            for _ in parents:
                _done(svc.store, claim_one(svc.store))
        reads: list[str] = []
        for name in ("get", "states"):
            real = getattr(svc.store, name)
            monkeypatch.setattr(
                svc.store, name,
                lambda *a, real=real, name=name: (reads.append(name),
                                                  real(*a))[1])
        receipts = svc.submit_many(
            [{"kind": "probe", "payload": {"behavior": "echo", "tag": i}}
             for i in range(50)], depends_on=parents)
        assert len({jid for r in receipts for jid in r.new}) == 50
        assert len(reads) <= len(parents), reads
        state = JobState.PENDING if parents_done else JobState.BLOCKED
        assert svc.store.counts()[state.value] == 50

    #: What the parent does between ``submit_many``'s state read and its
    #: insert -> (children's state, the one event each must carry).
    _RACES = {
        "done": (JobState.PENDING, "released"),
        "failed": (JobState.CANCELLED, "parent_failed"),
        "cancelled": (JobState.CANCELLED, "parent_failed"),
        "still-running": (JobState.BLOCKED, None),
    }

    @pytest.mark.parametrize("race", _RACES)
    def test_parent_settling_mid_submit_settles_the_stage(
            self, tmp_path, monkeypatch, race):
        """The parent's terminal hook fires before its children's edges
        exist; ``submit_many`` reconciles exactly the children whose
        parent turned terminal, each once."""
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, "parent", max_retries=0)
        leased = None if race == "cancelled" else claim_one(svc.store)
        real_add_batch = svc.store.add_batch

        def add_batch_after_the_parent_settles(staged):
            if race == "done":
                _done(svc.store, leased)
            elif race == "failed":
                _failed(svc.store, leased)
            elif race == "cancelled":
                assert svc.store.cancel(parent)
            return real_add_batch(staged)

        monkeypatch.setattr(svc.store, "add_batch",
                            add_batch_after_the_parent_settles)
        reconciled: list[str] = []
        real_reconcile = svc.dag.reconcile
        monkeypatch.setattr(svc.dag, "reconcile", lambda jid: (
            reconciled.append(jid), real_reconcile(jid))[1])
        receipts = svc.submit_many(
            [{"kind": "probe", "payload": {"behavior": "echo", "tag": i}}
             for i in range(3)], depends_on=[parent])
        children = [r.new[0] for r in receipts]
        state, event = self._RACES[race]
        assert [svc.store.get(c).state for c in children] == [state] * 3
        assert sorted(reconciled) == ([] if event is None
                                      else sorted(children))
        if event is not None:
            assert all(len(_events(svc, event, c)) == 1 for c in children)

    def test_blocked_jobs_are_not_claimable(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 1)
        child = _submit(svc, 2, depends_on=[parent])
        first = claim_one(svc.store)
        assert first.id == parent
        # The only other job is BLOCKED: nothing to claim.
        assert claim_one(svc.store) is None
        assert svc.store.get(child).state is JobState.BLOCKED

    def test_sweep_submission_carries_depends_on(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 1)
        receipt = svc.submit_sweep(
            Sweep(kind="probe", axes={"tag": [10, 11]},
                  base={"behavior": "echo"}),
            depends_on=[parent],
        )
        for jid in receipt.new:
            job = svc.store.get(jid)
            assert job.state is JobState.BLOCKED
            assert job.depends_on == [parent]


class TestDiamond:
    def test_diamond_child_waits_for_both_parents(self, tmp_path):
        svc = Service(tmp_path / "svc")
        root = _submit(svc, 0)
        left = _submit(svc, 1, depends_on=[root])
        right = _submit(svc, 2, depends_on=[root])
        join = _submit(svc, 3, depends_on=[left, right])

        _done(svc.store, claim_one(svc.store))
        assert svc.store.get(left).state is JobState.PENDING
        assert svc.store.get(right).state is JobState.PENDING
        assert svc.store.get(join).state is JobState.BLOCKED

        _done(svc.store, claim_one(svc.store))
        assert svc.store.get(join).state is JobState.BLOCKED  # right not DONE
        _done(svc.store, claim_one(svc.store))
        assert svc.store.get(join).state is JobState.PENDING
        # Exactly one release despite two parent edges finishing.
        assert len(_events(svc, "released", join)) == 1


class TestFailurePropagation:
    def test_chain_cancelled_exactly_once_with_audit(self, tmp_path):
        svc = Service(tmp_path / "svc")
        a = _submit(svc, 0, max_retries=0)
        b = _submit(svc, 1, depends_on=[a])
        c = _submit(svc, 2, depends_on=[b])
        other = _submit(svc, 3)  # unrelated branch

        _failed(svc.store, claim_one(svc.store))
        assert svc.store.get(b).state is JobState.CANCELLED
        assert svc.store.get(c).state is JobState.CANCELLED
        assert svc.store.get(other).state is JobState.PENDING
        for jid in (b, c):
            events = _events(svc, "parent_failed", jid)
            assert len(events) == 1
            assert events[0]["parent"] == a

    def test_user_cancel_of_parent_propagates(self, tmp_path):
        svc = Service(tmp_path / "svc")
        a = _submit(svc, 0)
        b = _submit(svc, 1, depends_on=[a])
        flipped, view = svc.cancel_job(a)
        assert flipped and view.state == "CANCELLED"
        assert svc.store.get(b).state is JobState.CANCELLED

    def test_sibling_branch_survives_one_parents_failure(self, tmp_path):
        svc = Service(tmp_path / "svc")
        root = _submit(svc, 0)
        doomed = _submit(svc, 1, depends_on=[root], max_retries=0)
        fine = _submit(svc, 2, depends_on=[root])
        leaf = _submit(svc, 3, depends_on=[fine])

        _done(svc.store, claim_one(svc.store))
        _failed(svc.store, claim_one(svc.store))  # doomed
        _done(svc.store, claim_one(svc.store))  # fine
        assert svc.store.get(leaf).state is JobState.PENDING


class TestRequeueInterplay:
    def test_requeued_parent_does_not_release_child(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 0)
        child = _submit(svc, 1, depends_on=[parent])
        lease, jobs = svc.store.claim_batch("w0", limit=1, ttl=30.0)
        assert jobs[0].id == parent
        # Attempt 1 of 3 fails: the parent requeues (PENDING), which is
        # not terminal -- the child must stay BLOCKED.
        svc.store.fail_leased(parent, lease.id, "transient")
        assert svc.store.get(parent).state is JobState.PENDING
        assert svc.store.get(child).state is JobState.BLOCKED
        assert not _events(svc, "released", child)

    def test_lease_expiry_requeue_does_not_release_child(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 0)
        child = _submit(svc, 1, depends_on=[parent])
        svc.store.claim_batch("w0", limit=1, ttl=30.0, now=1000.0)
        recovered = svc.store.expire_leases(now=2000.0)
        assert [j.id for j in recovered] == [parent]
        assert svc.store.get(parent).state is JobState.PENDING
        assert svc.store.get(child).state is JobState.BLOCKED

    def test_budget_exhausted_parent_cancels_child(self, tmp_path):
        svc = Service(tmp_path / "svc")
        receipt = svc.submit("probe", {"behavior": "echo", "tag": 0},
                             max_retries=0)
        parent = receipt.new[0]
        child = _submit(svc, 1, depends_on=[parent])
        lease, _ = svc.store.claim_batch("w0", limit=1, ttl=30.0)
        svc.store.fail_leased(parent, lease.id, "fatal")
        assert svc.store.get(parent).state is JobState.FAILED
        assert svc.store.get(child).state is JobState.CANCELLED


class TestIdempotentCancel:
    def test_cancel_terminal_job_returns_view_not_error(self, tmp_path):
        svc = Service(tmp_path / "svc")
        jid = _submit(svc, 0)
        _done(svc.store, claim_one(svc.store))
        flipped, view = svc.cancel_job(jid)
        assert flipped is False
        assert view.state == "DONE"
        # And again -- truly idempotent.
        assert svc.cancel_job(jid) == (False, view)

    def test_cancel_blocked_job_flips_it(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 0)
        child = _submit(svc, 1, depends_on=[parent])
        flipped, view = svc.cancel_job(child)
        assert flipped and view.state == "CANCELLED"

    def test_cancel_unknown_job_is_404(self, tmp_path):
        svc = Service(tmp_path / "svc")
        with pytest.raises(UnknownJobError):
            svc.cancel_job("nope")


class TestParentAwareKeys:
    def test_same_payload_different_parents_different_keys(self, tmp_path):
        svc = Service(tmp_path / "svc")
        p1 = _submit(svc, 1)
        p2 = _submit(svc, 2)
        c1 = _submit(svc, 9, depends_on=[p1])
        c2 = _submit(svc, 9, depends_on=[p2])
        assert c1 != c2
        assert svc.store.get(c1).key != svc.store.get(c2).key

    def test_parent_order_does_not_change_the_key(self):
        a = payload_key("probe", {"x": 1}, parents=("p1", "p2"))
        b = payload_key("probe", {"x": 1}, parents=("p2", "p1"))
        assert a == b

    def test_empty_parents_key_is_backward_compatible(self):
        assert payload_key("probe", {"x": 1}) == \
            payload_key("probe", {"x": 1}, parents=())


class TestCountsAndOutstanding:
    def test_blocked_counts_in_outstanding(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 0)
        _submit(svc, 1, depends_on=[parent])
        counts = svc.store.counts()
        assert counts["BLOCKED"] == 1 and counts["PENDING"] == 1
        assert svc.store.outstanding() == 2


class TestRecoverySweep:
    def test_service_open_sweeps_orphaned_blocked_jobs(self, tmp_path):
        svc = Service(tmp_path / "svc")
        parent = _submit(svc, 0)
        child = _submit(svc, 1, depends_on=[parent])
        # Simulate a coordinator dying between the parent's terminal
        # commit and the child's release: complete the parent with the
        # hook disconnected.
        svc.store.set_terminal_hook(None)
        _done(svc.store, claim_one(svc.store))
        assert svc.store.get(child).state is JobState.BLOCKED

        reopened = Service(tmp_path / "svc")  # __init__ runs dag.sweep()
        assert reopened.store.get(child).state is JobState.PENDING
        assert len(_events(reopened, "released", child)) == 1

    def test_sweep_cascades_cancellations_to_fixpoint(self, tmp_path):
        svc = Service(tmp_path / "svc")
        a = _submit(svc, 0, max_retries=0)
        b = _submit(svc, 1, depends_on=[a])
        c = _submit(svc, 2, depends_on=[b])
        svc.store.set_terminal_hook(None)
        _failed(svc.store, claim_one(svc.store))

        released, cancelled = svc.dag.sweep()
        assert released == []
        assert set(cancelled) == {b, c}
        # A second sweep finds nothing left to do.
        assert svc.dag.sweep() == ([], [])


class TestWorkersEndToEnd:
    def test_three_stage_chain_drains_with_winner_resolution(self, tmp_path):
        svc = Service(tmp_path / "svc")
        grid = svc.submit_sweep(Sweep(kind="probe", axes={"tag": [1, 5, 3]},
                                      base={"behavior": "echo"})).new
        pick = svc.submit("reduce", {"metric": "tag", "mode": "max"},
                          depends_on=grid).new[0]
        study = svc.submit("probe", {"behavior": "echo",
                                     "tag": {"$winner": "tag"}, "x": 7},
                           depends_on=[pick]).new[0]

        summary = svc.run_workers(WorkerOptions(n=2, drain=True))
        assert summary.counts["DONE"] == 5
        assert summary.counts["FAILED"] == 0
        reduced = svc.result(pick).result
        assert reduced["value"] == 5
        assert reduced["winner_payload"]["tag"] == 5
        assert svc.result(study).result == {"tag": 5, "x": 7}

    def test_reduce_with_min_mode(self, tmp_path):
        svc = Service(tmp_path / "svc")
        grid = svc.submit_sweep(Sweep(kind="probe", axes={"tag": [4, 2, 8]},
                                      base={"behavior": "echo"})).new
        pick = svc.submit("reduce", {"metric": "tag", "mode": "min"},
                          depends_on=grid).new[0]
        svc.run_workers(WorkerOptions(n=2, drain=True))
        assert svc.result(pick).result["value"] == 2

    def test_reduce_without_parents_fails_cleanly(self, tmp_path):
        """Refused at submit: it would have nothing to rank."""
        svc = Service(tmp_path / "svc")
        with pytest.raises(ConfigError, match="needs depends_on"):
            svc.submit("reduce", {"metric": "x"}, max_retries=0)
        assert not svc.store.events()


class TestDagHelpers:
    def test_toposort_orders_parents_first(self):
        order = toposort(["c", "b", "a"], {"c": ["b"], "b": ["a"]})
        assert order == ["a", "b", "c"]

    def test_toposort_detects_cycles(self):
        with pytest.raises(CycleError):
            toposort(["a", "b"], {"a": ["b"], "b": ["a"]})
        with pytest.raises(CycleError):
            toposort(["a"], {"a": ["a"]})

    def test_toposort_ignores_foreign_parents(self):
        # Parent ids outside the node set (already-persisted jobs)
        # cannot complete a cycle and are skipped.
        assert toposort(["a"], {"a": ["external"]}) == ["a"]

    def test_placeholder_detection_and_resolution(self):
        payload = {"nb": {"$winner": "nb"}, "n": 4096,
                   "list": [{"$winner": "p"}]}
        assert has_placeholders(payload)
        assert not has_placeholders({"n": 1, "nested": {"a": [1, 2]}})
        results = {"p1": {"payload": {}, "result": {
            "winner_payload": {"nb": 256, "p": 4}}}}
        resolved = resolve_payload(payload, results)
        assert resolved == {"nb": 256, "n": 4096, "list": [4]}

    def test_resolve_missing_winner_field_raises(self):
        results = {"p1": {"payload": {}, "result": {
            "winner_payload": {"nb": 256}}}}
        with pytest.raises(ServiceError):
            resolve_payload({"x": {"$winner": "missing"}}, results)

    def test_needs_parent_results(self, tmp_path):
        svc = Service(tmp_path / "svc")
        plain = svc.store.get(_submit(svc, 0))
        assert not needs_parent_results(plain)
        parent = plain.id
        reduce_job = svc.store.get(svc.submit(
            "reduce", {"metric": "tag"}, depends_on=[parent]).new[0])
        assert needs_parent_results(reduce_job)
