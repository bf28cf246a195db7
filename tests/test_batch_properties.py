"""Hypothesis property: ``submit_many`` == N single ``submit`` calls.

The batch endpoint exists to save round-trips, not to change meaning.
For ANY sequence of submissions (duplicate payloads included) a single
``submit_many`` call must be
observationally equivalent to submitting the same items one at a time:

* the per-position **disposition** sequence matches (``new`` vs
  ``deduped``; ``probe`` is an uncached kind so it is always ``new``),
* a deduped position points at the **same earlier position** -- the
  first in-flight occurrence of that payload -- in both worlds,
* every position lands the identical **content key** (dedup and the
  result cache key off it, so this is the byte-identical-sweep claim),
* the **final queues** agree: same multiset of ``(kind, key, state)``
  rows, same counts, same outstanding figure.

Job *ids* are random by design, so the comparison is over dispositions,
positions, and keys -- never raw ids.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service import Service, SubmitReceipt, Sweep

pytestmark = pytest.mark.dedicated

# A small payload pool makes in-batch duplicates common; "fact" dedups
# on content, "probe" is in UNCACHED_KINDS and always enqueues.
_submissions = st.lists(
    st.tuples(
        st.sampled_from(["fact", "probe"]),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=20,
).map(lambda items: [
    {"kind": kind, "payload": {"n": n}} for kind, n in items
])

# Grids over the same small pool: repeated axis values are grid corners
# with one content key, which a sweep drops before submitting.
_sweeps = st.builds(
    lambda kind, ns, tag: Sweep(kind=kind, axes={"n": ns},
                                base={"tag": tag}),
    st.sampled_from(["fact", "probe"]),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1,
             max_size=8),
    st.integers(min_value=0, max_value=1),
)


def _dispositions(receipts):
    """Per-position ``(disposition, target_position)`` trace.

    ``target_position`` is the position whose submission created the job
    this receipt refers to: itself for ``new``, the first in-flight
    duplicate for ``deduped``.  Receipts are compared through positions
    because ids are random per store.
    """
    first_seen: dict[str, int] = {}
    trace = []
    for pos, receipt in enumerate(receipts):
        if receipt.new:
            (jid,) = receipt.new
            first_seen[jid] = pos
            trace.append(("new", pos))
        elif receipt.deduped:
            (jid,) = receipt.deduped
            trace.append(("deduped", first_seen[jid]))
        else:  # pragma: no cover - needs a warmed result cache
            (jid,) = receipt.cached
            first_seen[jid] = pos
            trace.append(("cached", pos))
    return trace


def _keys_by_position(svc, receipts):
    return [svc.store.get(r.job_ids[0]).key for r in receipts]


def _queue_rows(svc):
    rows = [(job.kind, job.key, job.state.value)
            for job in svc.store.list()]
    return sorted(rows)


class TestBatchEquivalence:
    @given(submissions=_submissions)
    @settings(max_examples=60, deadline=None)
    def test_submit_many_equals_n_submits(self, submissions):
        with tempfile.TemporaryDirectory() as td:
            singly = Service(f"{td}/singly")
            batched = Service(f"{td}/batched")
            try:
                want = [singly.submit(s["kind"], s["payload"])
                        for s in submissions]
                got = batched.submit_many(submissions)

                assert len(got) == len(submissions)
                # Every receipt names exactly one job.
                assert all(len(r.job_ids) == 1 for r in want + got)
                assert _dispositions(got) == _dispositions(want)
                assert _keys_by_position(batched, got) == \
                    _keys_by_position(singly, want)

                # The stores ended up indistinguishable.
                assert _queue_rows(batched) == _queue_rows(singly)
                assert batched.store.counts() == singly.store.counts()
                assert batched.store.outstanding() == \
                    singly.store.outstanding()
            finally:
                singly.store.close()
                batched.store.close()

    @given(sweep=_sweeps)
    @settings(max_examples=30, deadline=None)
    def test_sweep_equals_submit_many_equals_n_submits(self, sweep):
        """``submit_sweep(s)`` is the merged ``submit_many`` of its
        points, which is N ``submit`` calls: three spellings, one path."""
        with tempfile.TemporaryDirectory() as td:
            services = [Service(f"{td}/{name}")
                        for name in ("sweep", "many", "singly")]
            swept, batched, singly = services
            try:
                points = sweep.submissions()
                receipts = [
                    swept.submit_sweep(sweep),
                    SubmitReceipt.merged(batched.submit_many(points)),
                    SubmitReceipt.merged(
                        singly.submit(p["kind"], p["payload"])
                        for p in points),
                ]
                # Same keys under the same dispositions, in one order;
                # same rows; same events in the log.
                assert len({repr([
                    [svc.store.get(jid).key for jid in ids]
                    for ids in (r.new, r.cached, r.deduped)
                ]) for svc, r in zip(services, receipts)}) == 1
                assert _queue_rows(swept) == _queue_rows(batched) \
                    == _queue_rows(singly)
                assert len({repr([(e["event"], e["key"])
                                  for e in svc.store.events()])
                            for svc in services}) == 1
            finally:
                for svc in services:
                    svc.store.close()

    @given(submissions=_submissions)
    @settings(max_examples=30, deadline=None)
    def test_resubmitting_the_batch_dedups_everything(self, submissions):
        """Replaying an identical batch creates nothing new: every
        position resolves to an already-active job (the retry-safety
        claim the chaos suite leans on)."""
        with tempfile.TemporaryDirectory() as td:
            svc = Service(f"{td}/svc")
            try:
                first = svc.submit_many(submissions)
                before = _queue_rows(svc)
                replay = svc.submit_many(submissions)
                # probe is uncached => genuinely new each time; every
                # dedup-capable kind resolves to the existing job.
                for sub, r1, r2 in zip(submissions, first, replay):
                    if sub["kind"] == "probe":
                        assert r2.new and r2.new != r1.new
                    else:
                        assert not r2.new
                        assert r2.deduped
                probes = sum(s["kind"] == "probe" for s in submissions)
                assert len(_queue_rows(svc)) == len(before) + probes
            finally:
                svc.store.close()


def test_invalid_last_point_leaves_nothing_behind(tmp_path):
    """In-process sweeps and campaigns get the HTTP routes' check: a
    ``run`` grid whose *last* corner is no ``HPLConfig`` raises before
    the first point is queued, and logs no ``submitted`` event."""
    svc = Service(tmp_path / "svc")
    try:
        grid = Sweep(kind="run", axes={"n": [64, 96, -1]},
                     base={"nb": 8, "p": 2, "q": 2})
        with pytest.raises(ConfigError, match=r"jobs\[2\]: n must be"):
            svc.submit_sweep(grid)
        with pytest.raises(ConfigError, match=r"stage 'grid': jobs\[2\]"):
            svc.submit_campaign({"stages": [
                {"name": "first", "kind": "probe", "payload": {}},
                {"name": "grid", "after": ["first"],
                 "sweep": grid.to_spec()},
            ]})
        assert svc.store.count_matching() == 0
        assert svc.store.events() == []
    finally:
        svc.store.close()
