"""Dependency-aware job release: the DAG resolver.

Jobs submitted with ``depends_on`` start BLOCKED and carry their parent
ids both on the row (``depends_on``) and as child-side edges in the
store's ``deps`` table.  This module owns the two transitions out of
BLOCKED:

* **Release** -- when a parent commits DONE, the store's terminal hook
  calls :meth:`DagResolver.on_terminal`, which releases every BLOCKED
  child whose parents are now *all* DONE.  Release is event-driven (no
  polling) and exactly-once: the store's guarded
  ``UPDATE ... WHERE state = 'BLOCKED'`` lets exactly one of any racing
  resolvers win, and only the winner logs the ``released`` audit event.
  Because a requeued parent (retry backoff, lease expiry within budget)
  is PENDING -- not terminal -- no hook fires for it and its children
  stay BLOCKED until the parent genuinely finishes.

* **Kill-on-parent-failure** -- when a parent commits FAILED or
  CANCELLED, the resolver cancels the parent's entire descendant
  closure with a single ``parent_failed`` audit event per descendant.
  Every descendant of a non-DONE parent is necessarily still BLOCKED (a
  job only leaves BLOCKED once all parents are DONE, and DONE is
  permanent), so the guarded BLOCKED -> CANCELLED update covers exactly
  the descendant set.

:meth:`DagResolver.sweep` replays the same decisions over every BLOCKED
job for crash recovery (a coordinator SIGKILLed between a parent's
commit and its children's release).
"""

from __future__ import annotations

from ..errors import CycleError, ServiceError, UnknownJobError
from .jobs import Job, JobState

#: Payload placeholder marker: a dict value of exactly
#: ``{"$winner": "<field>"}`` is replaced at launch with that field of
#: the upstream reduce job's ``winner_payload``.
WINNER_MARKER = "$winner"


def toposort(nodes: list[str], parents: dict[str, list[str]]) -> list[str]:
    """Order ``nodes`` so every entry follows all of its parents.

    ``parents`` maps a node to the nodes it depends on; ids absent from
    ``nodes`` are ignored (already-existing jobs cannot complete a
    cycle).  Raises :class:`CycleError` naming the cyclic members.  The
    order is deterministic: ready nodes keep their input order.
    """
    known = set(nodes)
    remaining = {n: {p for p in parents.get(n, ()) if p in known}
                 for n in nodes}
    order: list[str] = []
    while remaining:
        ready = [n for n in nodes if n in remaining and not remaining[n]]
        if not ready:
            cycle = ", ".join(sorted(remaining))
            raise CycleError(f"dependency cycle among: {cycle}")
        for n in ready:
            del remaining[n]
            order.append(n)
        for deps in remaining.values():
            deps.difference_update(ready)
    return order


def has_placeholders(payload) -> bool:
    """Whether any value in the payload is a ``$winner`` placeholder."""
    if isinstance(payload, dict):
        if set(payload) == {WINNER_MARKER}:
            return True
        return any(has_placeholders(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(has_placeholders(v) for v in payload)
    return False


def needs_parent_results(job: Job) -> bool:
    """Whether the pool must inject parent results before launching."""
    return bool(job.depends_on) and (
        job.kind == "reduce" or has_placeholders(job.payload)
    )


def _winner_payload(parent_results: dict) -> dict:
    for pid in sorted(parent_results):
        result = parent_results[pid].get("result") or {}
        if isinstance(result, dict) and "winner_payload" in result:
            return result["winner_payload"]
    raise ServiceError(
        "payload has $winner placeholders but no parent produced a"
        " winner_payload (is a reduce stage upstream?)"
    )


def resolve_payload(payload, parent_results: dict):
    """Substitute ``$winner`` placeholders from the reduce parent.

    ``parent_results`` maps parent job id to
    ``{"payload": ..., "result": ...}``; the winner payload comes from
    the (unique) parent whose result carries ``winner_payload``.
    Raises :class:`ServiceError` when a referenced field is missing.
    """
    if isinstance(payload, dict):
        if set(payload) == {WINNER_MARKER}:
            field = payload[WINNER_MARKER]
            winner = _winner_payload(parent_results)
            if field not in winner:
                raise ServiceError(
                    f"winner payload has no field {field!r}"
                )
            return winner[field]
        return {k: resolve_payload(v, parent_results)
                for k, v in payload.items()}
    if isinstance(payload, list):
        return [resolve_payload(v, parent_results) for v in payload]
    return payload


class DagResolver:
    """Releases and cancels BLOCKED jobs off terminal transitions.

    Stateless between calls: every decision re-reads job states from
    the store, so any number of resolver instances (one per worker
    pool, one in the coordinator) may observe the same transition --
    the store's guarded updates keep the outcome exactly-once.
    """

    def __init__(self, store) -> None:
        self.store = store

    # -- event-driven path (terminal hook) -------------------------------

    def on_terminal(self, job: Job) -> None:
        """Terminal-transition hook: react to one parent finishing."""
        if job.state is JobState.DONE:
            self.release_children(job.id)
        elif job.state in (JobState.FAILED, JobState.CANCELLED):
            self.cancel_descendants(job.id)

    def release_children(self, parent_id: str) -> list[str]:
        """Release every BLOCKED child whose parents are all DONE."""
        released = []
        for child in self.store.children_of(parent_id):
            if self._parents_all_done(child) and self.store.release(child.id):
                released.append(child.id)
        return released

    def cancel_descendants(self, failed_id: str) -> list[str]:
        """Cancel the BLOCKED descendant closure of a failed parent.

        Traverses child edges breadth-first; every reachable BLOCKED
        job gets one guarded BLOCKED -> CANCELLED flip and one
        ``parent_failed`` event naming ``failed_id``.  Nodes another
        resolver already cancelled are still traversed (their subtrees
        may not be), which is safe: the guarded update is idempotent.
        """
        cancelled = []
        frontier = [failed_id]
        seen = {failed_id}
        while frontier:
            node = frontier.pop(0)
            for child in self.store.children_of(node):
                if child.id in seen:
                    continue
                seen.add(child.id)
                if self.store.cancel_from_parent(child.id, failed_id):
                    cancelled.append(child.id)
                frontier.append(child.id)
        return cancelled

    def _parents_all_done(self, child: Job) -> bool:
        for pid in child.depends_on:
            try:
                if self.store.get(pid).state is not JobState.DONE:
                    return False
            except UnknownJobError:
                return False
        return True

    # -- reconciliation (submit races, crash recovery) -------------------

    def reconcile(self, child_id: str) -> None:
        """Settle one freshly inserted BLOCKED job against its parents.

        Closes the submit-vs-completion race: a parent that finished
        between the submit-time state check and the insert fired its
        hook before the child's edges existed, so nobody would ever
        release (or cancel) the child.  Re-checking after the insert
        makes one of the two sides see the final picture.
        """
        try:
            child = self.store.get(child_id)
        except UnknownJobError:
            return
        if child.state is not JobState.BLOCKED:
            return
        for pid in child.depends_on:
            try:
                parent = self.store.get(pid)
            except UnknownJobError:
                parent = None
            if parent is None or parent.state in (JobState.FAILED,
                                                  JobState.CANCELLED):
                self.store.cancel_from_parent(child.id, pid)
                self.cancel_descendants(child.id)
                return
            if parent.state is not JobState.DONE:
                return
        self.store.release(child.id)

    def sweep(self) -> tuple[list[str], list[str]]:
        """Reconcile every BLOCKED job; returns (released, cancelled).

        Crash recovery: replays the release/cancel decisions a
        SIGKILLed coordinator may have dropped between a parent's
        terminal commit and the children's transitions.  Iterates to a
        fixpoint because a cancellation can cascade within one sweep.
        Idempotent and safe against live traffic -- the guarded updates
        make each transition happen exactly once, here or there.
        """
        released: list[str] = []
        cancelled: list[str] = []
        progressed = True
        while progressed:
            progressed = False
            for child in self.store.list(state=JobState.BLOCKED):
                verdict = self._verdict(child)
                if verdict == "release" and self.store.release(child.id):
                    released.append(child.id)
                    progressed = True
                elif verdict and verdict != "release":
                    if self.store.cancel_from_parent(child.id, verdict):
                        cancelled.append(child.id)
                        progressed = True
        return released, cancelled

    def _verdict(self, child: Job) -> str | None:
        """"release", the failed parent's id, or None (still waiting)."""
        all_done = True
        for pid in child.depends_on:
            try:
                parent = self.store.get(pid)
            except UnknownJobError:
                return pid  # parent vanished: the child can never run
            if parent.state in (JobState.FAILED, JobState.CANCELLED):
                return pid
            if parent.state is not JobState.DONE:
                all_done = False
        return "release" if all_done else None
