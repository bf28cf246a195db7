"""The job model: one schedulable benchmark run with a lifecycle.

A :class:`Job` is a *kind* (``run`` / ``sim`` / ``scale`` / ``fact`` /
``reduce`` / ``probe``) plus a JSON payload of parameters -- for ``run``
jobs the payload is exactly :meth:`repro.config.HPLConfig.to_dict`
output.  Jobs move through
``PENDING -> RUNNING -> DONE | FAILED | CANCELLED``; a failed attempt
within the retry budget moves the job back to ``PENDING`` with a
backoff timestamp (``not_before``).  A job submitted with
``depends_on`` starts in ``BLOCKED`` instead and only turns ``PENDING``
once every parent is ``DONE`` (see :mod:`repro.service.dag`).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import time
import uuid


class JobState(str, enum.Enum):
    """Lifecycle state of a job (string-valued for storage and display)."""

    BLOCKED = "BLOCKED"
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    @property
    def active(self) -> bool:
        """Non-terminal: the job still occupies the queue."""
        return not self.terminal


#: Job kinds that bypass the result cache and active-job dedup: probes
#: exist to exercise the pool itself (sleep / crash / flaky behaviours),
#: so two identical probes must both actually run.
UNCACHED_KINDS = frozenset({"probe"})


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclasses.dataclass
class Job:
    """One queued benchmark run.

    Attributes:
        id: Short unique identifier.
        kind: Runner name (``run``/``sim``/``scale``/``fact``/``probe``).
        payload: JSON-serializable parameter dict for the runner.
        key: Content hash of ``(kind, payload)`` -- the cache key.
        state: Lifecycle state.
        attempts: Number of times a worker has claimed this job.
        max_retries: Extra attempts allowed after the first failure
            (total attempts = ``1 + max_retries``).
        timeout: Per-attempt wall-clock limit in seconds (0 = none).
        not_before: Earliest time a worker may claim the job (backoff).
        error: Last failure's one-line summary + traceback (FAILED jobs).
        result_key: Cache key of the stored result (DONE jobs).
        cached: True when the job was satisfied from cache at submit
            time and never ran.
        worker: Name of the worker pool that last claimed the job.
        lease_id: Id of the lease holding the job while RUNNING (every
            claim is a lease, whichever transport the pool uses).
        lease_expires: Unix time the holding lease lapses; after it a
            still-RUNNING job is requeued and late reports are rejected.
        created / updated: Unix timestamps.
        depends_on: Parent job ids; the job stays BLOCKED until every
            parent is DONE (see :mod:`repro.service.dag`).
        parent_results: Transient parent outputs injected by the worker
            pool just before launch (``{parent_id: {"payload", "result"}}``
            for reduce jobs and ``$winner`` placeholders).  Never
            persisted -- not part of :data:`COLUMNS`.
    """

    id: str
    kind: str
    payload: dict
    key: str
    state: JobState = JobState.PENDING
    attempts: int = 0
    max_retries: int = 2
    timeout: float = 0.0
    not_before: float = 0.0
    error: str = ""
    result_key: str = ""
    cached: bool = False
    worker: str = ""
    lease_id: str = ""
    lease_expires: float = 0.0
    created: float = 0.0
    updated: float = 0.0
    depends_on: list = dataclasses.field(default_factory=list)
    parent_results: dict | None = dataclasses.field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.created:
            self.created = time.time()
        if not self.updated:
            self.updated = self.created
        if isinstance(self.state, str) and not isinstance(self.state, JobState):
            self.state = JobState(self.state)

    def to_row(self) -> tuple:
        """Column tuple in :data:`COLUMNS` order (payload as JSON)."""
        return (
            self.id, self.kind, json.dumps(self.payload, sort_keys=True),
            self.key, self.state.value, self.attempts, self.max_retries,
            self.timeout, self.not_before, self.error, self.result_key,
            int(self.cached), self.worker, self.lease_id,
            self.lease_expires, self.created, self.updated,
            json.dumps(self.depends_on),
        )

    @classmethod
    def from_row(cls, row) -> "Job":
        (jid, kind, payload, key, state, attempts, max_retries, timeout,
         not_before, error, result_key, cached, worker, lease_id,
         lease_expires, created, updated, depends_on) = row
        return cls(
            id=jid, kind=kind, payload=json.loads(payload), key=key,
            state=JobState(state), attempts=attempts,
            max_retries=max_retries, timeout=timeout,
            not_before=not_before, error=error, result_key=result_key,
            cached=bool(cached), worker=worker, lease_id=lease_id,
            lease_expires=lease_expires, created=created,
            updated=updated, depends_on=json.loads(depends_on or "[]"),
        )


COLUMNS = (
    "id", "kind", "payload", "key", "state", "attempts", "max_retries",
    "timeout", "not_before", "error", "result_key", "cached", "worker",
    "lease_id", "lease_expires", "created", "updated", "depends_on",
)


@dataclasses.dataclass
class Lease:
    """One worker's time-bounded claim on a batch of RUNNING jobs.

    A lease is how a worker with *no shared filesystem* holds jobs: the
    store grants it at claim time with a TTL, heartbeats extend it, and
    a lease that lapses (worker died, network partition) forfeits its
    jobs back to PENDING -- exactly once, by the expiry sweep.
    """

    id: str
    worker: str
    created: float
    expires: float

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "worker": self.worker,
            "created": self.created,
            "expires": self.expires,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        return cls(
            id=data["id"], worker=data["worker"],
            created=data["created"], expires=data["expires"],
        )


def new_lease_id() -> str:
    return uuid.uuid4().hex[:12]
