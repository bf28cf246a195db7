"""Typed read models for the v1 API: one shape per resource.

Every surface that reports a job -- the :class:`~repro.service.api.Service`
facade, the HTTP server, both HTTP clients, and the CLI tables -- speaks
:class:`JobView`; collections travel as a :class:`QueuePage` (jobs plus
counts plus the pagination window) and results as a :class:`ResultView`.
Serialization is symmetric (``to_dict`` / ``from_dict``), so a view that
crosses the wire reconstructs into the same dataclass on the client,
and the JSON envelope is always ``{"job": {...}}`` for one job and
``{"jobs": [...], ...}`` for a page -- never a bare dict.
"""

from __future__ import annotations

import dataclasses

from .jobs import Job, JobState

#: States from which a job will never produce further transitions.
TERMINAL_STATES = frozenset(s.value for s in JobState if s.terminal)


def one_line(error: str) -> str:
    """The last line of a (possibly multi-line) error, for display."""
    return error.splitlines()[-1] if error else ""


@dataclasses.dataclass(frozen=True)
class JobView:
    """The read-only projection of one job that crosses the API."""

    id: str
    kind: str
    state: str
    attempts: int
    max_retries: int
    timeout: float
    cached: bool
    key: str
    payload: dict
    error: str
    result_key: str
    worker: str
    created: float
    updated: float
    depends_on: tuple = ()

    @classmethod
    def from_job(cls, job: Job) -> "JobView":
        return cls(
            id=job.id, kind=job.kind, state=job.state.value,
            attempts=job.attempts, max_retries=job.max_retries,
            timeout=job.timeout, cached=job.cached, key=job.key,
            payload=job.payload, error=one_line(job.error),
            result_key=job.result_key, worker=job.worker,
            created=job.created, updated=job.updated,
            depends_on=tuple(job.depends_on),
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["depends_on"] = list(self.depends_on)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobView":
        # ``depends_on`` is tolerated missing so views from a pre-DAG
        # server still parse.
        return cls(**{
            f.name: (tuple(data.get("depends_on", ()))
                     if f.name == "depends_on" else data[f.name])
            for f in dataclasses.fields(cls)
        })

    def to_job(self) -> Job:
        """A :class:`Job` a *remote* worker can execute.

        Reconstructs the fields runners and supervisors consume
        (payload, attempt count, retry budget, timeout); store-side
        bookkeeping the wire view deliberately drops (``not_before``,
        lease columns) stays at its defaults.
        """
        return Job(
            id=self.id, kind=self.kind, payload=self.payload,
            key=self.key, state=self.state, attempts=self.attempts,
            max_retries=self.max_retries, timeout=self.timeout,
            error=self.error, result_key=self.result_key,
            cached=self.cached, worker=self.worker,
            created=self.created, updated=self.updated,
            depends_on=list(self.depends_on),
        )


@dataclasses.dataclass(frozen=True)
class QueuePage:
    """One filtered, windowed slice of the queue plus its global counts.

    ``total`` counts every job matching the ``state``/``kind`` filter
    *before* the page window was applied, so clients can page through
    without a separate count call; ``counts`` and ``outstanding``
    always describe the whole queue, unfiltered.
    """

    jobs: tuple
    counts: dict
    total: int
    outstanding: int
    limit: int | None
    state: str | None = None
    kind: str | None = None
    workdir: str = ""
    #: Opaque continuation token for the next page, or ``None`` when
    #: this page reaches the end of the match set.  Shares the event
    #: feed's cursor idiom; tolerated missing so pages from an older
    #: server still parse.
    cursor: str | None = None

    def to_dict(self) -> dict:
        return {
            "jobs": [v.to_dict() for v in self.jobs],
            "counts": dict(self.counts),
            "total": self.total,
            "outstanding": self.outstanding,
            "limit": self.limit,
            "state": self.state,
            "kind": self.kind,
            "workdir": self.workdir,
            "cursor": self.cursor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueuePage":
        return cls(
            jobs=tuple(JobView.from_dict(j) for j in data["jobs"]),
            counts=data["counts"], total=data["total"],
            outstanding=data["outstanding"], limit=data["limit"],
            state=data.get("state"), kind=data.get("kind"),
            workdir=data.get("workdir", ""), cursor=data.get("cursor"),
        )


@dataclasses.dataclass(frozen=True)
class EventView:
    """One audit-log event as it crosses the v1 event feed.

    ``cursor`` is the opaque continuation token positioned *just past*
    this event -- resuming a feed from it (long-poll ``?cursor=`` or SSE
    ``Last-Event-ID``) never replays the event, which is what makes the
    feed exactly-once.  ``kind`` is the audit event name (``submitted``,
    ``claimed``, ``done``, ...); ``state`` is the job state the event
    implies (explicit in the record, or derived from the event name),
    empty for events that carry none.  ``data`` holds every extra field
    of the raw record (``worker``, ``lease``, ``error``, the job's own
    ``kind`` for submissions, ...).
    """

    cursor: str
    t: float
    job_id: str
    kind: str
    state: str
    data: dict

    @property
    def terminal(self) -> bool:
        """True when this event put the job in a terminal state."""
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        return {
            "cursor": self.cursor,
            "t": self.t,
            "job": self.job_id,
            "event": self.kind,
            "state": self.state,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventView":
        return cls(
            cursor=data["cursor"], t=data["t"], job_id=data["job"],
            kind=data["event"], state=data.get("state", ""),
            data=data.get("data", {}),
        )


@dataclasses.dataclass(frozen=True)
class ResultView:
    """One job's result envelope: the job view plus readiness + payload."""

    job: JobView
    ready: bool
    result: dict | None

    @property
    def state(self) -> str:
        return self.job.state

    def to_dict(self) -> dict:
        return {
            "job": self.job.to_dict(),
            "ready": self.ready,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultView":
        return cls(
            job=JobView.from_dict(data["job"]),
            ready=data["ready"], result=data["result"],
        )


@dataclasses.dataclass(frozen=True)
class StageView:
    """One campaign stage's live progress.

    ``counts`` maps every job state to how many of the stage's jobs are
    in it; ``state`` collapses that to one word with failure dominating:
    ``failed`` > ``cancelled`` > ``done`` (all) > ``running`` >
    ``pending`` > ``blocked``.
    """

    name: str
    kind: str
    after: tuple
    job_ids: tuple
    counts: dict
    state: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "after": list(self.after),
            "job_ids": list(self.job_ids),
            "counts": dict(self.counts),
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageView":
        return cls(
            name=data["name"], kind=data["kind"],
            after=tuple(data["after"]), job_ids=tuple(data["job_ids"]),
            counts=data["counts"], state=data["state"],
        )


@dataclasses.dataclass(frozen=True)
class CampaignView:
    """One campaign: its identity plus per-stage progress."""

    id: str
    name: str
    created: float
    state: str
    stages: tuple
    njobs: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "created": self.created,
            "state": self.state,
            "stages": [s.to_dict() for s in self.stages],
            "njobs": self.njobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignView":
        return cls(
            id=data["id"], name=data["name"], created=data["created"],
            state=data["state"],
            stages=tuple(StageView.from_dict(s) for s in data["stages"]),
            njobs=data["njobs"],
        )


@dataclasses.dataclass(frozen=True)
class DagView:
    """A campaign's dependency graph: one node per job, edges inline.

    ``nodes`` is a tuple of dicts ``{"id", "stage", "kind", "state",
    "depends_on"}`` in submission (topological) order -- the shape is a
    plain adjacency list so clients can render or analyze it without
    further calls.
    """

    campaign_id: str
    nodes: tuple

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "nodes": [dict(n) for n in self.nodes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DagView":
        return cls(
            campaign_id=data["campaign_id"],
            nodes=tuple(data["nodes"]),
        )
