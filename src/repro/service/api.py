"""The in-process service: submit / status / results / cancel / run_workers.

:class:`Service` ties the store, cache, sweep expander, and worker pool
together behind the call vocabulary of :mod:`repro.service.facade` --
the surface the CLI, the worker pool and the HTTP front-end use, and the
one :class:`~repro.service.http.ServiceClient` answers over the wire.
Submission has one path -- :meth:`Service.submit_many` validates,
builds the jobs and inserts them in one transaction; a single submit,
a sweep and each campaign stage are calls of it -- and
it is where result reuse happens:

* a payload whose content key already has a cached result is recorded as
  a DONE job immediately (``cached=True``) and never enters the queue;
* a payload whose key matches a BLOCKED/PENDING/RUNNING job is
  *deduplicated* -- the existing job's id is returned instead of
  queueing a twin;
* everything else becomes a PENDING (or BLOCKED) job for the workers.

``probe`` jobs bypass both paths (see
:data:`repro.service.jobs.UNCACHED_KINDS`).
"""

from __future__ import annotations

import glob
import math
import os
import threading
import weakref
from dataclasses import dataclass, field

from ..config import HPLConfig, canonical_json
from ..errors import (
    ConfigError,
    MalformedRequestError,
    ResultTooLargeError,
    StoreUnavailableError,
    UnknownJobError,
    UnknownJobKindError,
    UnknownParentError,
)
from .cache import ResultCache, payload_key
from .campaign import (CampaignStore, build_campaign_view, build_dag_view,
                       make_record, new_campaign_id, parse_campaign_spec)
from .dag import DagResolver, has_placeholders
from .events import (EventBroker, EventFilter, decode_queue_cursor,
                     encode_queue_cursor, makes_claimable)
from .facade import ServiceFacade
from .jobs import UNCACHED_KINDS, Job, JobState, Lease, new_job_id
from .store import JobStore
from .sweep import MAX_BATCH_JOBS, Sweep
from .views import (CampaignView, DagView, EventView, JobView, QueuePage,
                    ResultView)
from .workers import (RUNNERS, PoolSummary, WorkerOptions, WorkerPool,
                      sim_config)

DEFAULT_WORKDIR = ".repro-service"

#: The largest result, in bytes of its canonical JSON encoding, that
#: :meth:`Service.complete_job` accepts.  Every result travels inline in
#: one request and one cache record; a built-in kind's summary is a few
#: KiB at most.
MAX_RESULT_BYTES = 1024 * 1024

#: The largest HTTP request body the server reads.  A ``complete`` body
#: is the result re-encoded with ``json.dumps``'s default separators
#: (at most 1.5x the canonical bytes) plus the lease id, so any result
#: the service would accept fits.
MAX_BODY_BYTES = 2 * MAX_RESULT_BYTES


@dataclass
class SubmitReceipt:
    """What one submission call did, job ids grouped by disposition.

    This is *the* submit response shape everywhere: the facade returns
    it, the HTTP server serializes :meth:`to_dict` as the
    ``{"receipt": {...}}`` envelope, and the clients rebuild it with
    :meth:`from_dict` so remote and local submission hand the caller
    the identical object.
    """

    new: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    deduped: list[str] = field(default_factory=list)

    @property
    def job_ids(self) -> list[str]:
        return self.new + self.cached + self.deduped

    @classmethod
    def merged(cls, receipts) -> "SubmitReceipt":
        """One receipt holding every id of ``receipts``, order kept."""
        out = cls()
        for r in receipts:
            out.new += r.new
            out.cached += r.cached
            out.deduped += r.deduped
        return out

    def to_dict(self) -> dict:
        return {
            "new": list(self.new),
            "cached": list(self.cached),
            "deduped": list(self.deduped),
            "job_ids": self.job_ids,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubmitReceipt":
        return cls(
            new=list(data.get("new", ())),
            cached=list(data.get("cached", ())),
            deduped=list(data.get("deduped", ())),
        )


def _validated(submissions, timeout, max_retries, depends_on,
               where: str = "") -> list[tuple]:
    """Normalise submissions to ``(kind, payload, timeout, max_retries,
    parent_ids)`` tuples, or raise before anything is queued.

    ``timeout`` / ``max_retries`` / ``depends_on`` are the call's
    defaults; an item's own field wins.  Any of it may be raw request
    data.  Errors are prefixed with ``where`` and, when the call carried
    more than one item, the item's position (``jobs[3]: ...``).
    """
    if not isinstance(submissions, (list, tuple)):
        raise MalformedRequestError(
            f"{where}submissions must be a list,"
            f" got {type(submissions).__name__}"
        )
    if len(submissions) > MAX_BATCH_JOBS:
        raise MalformedRequestError(
            f"{where}{len(submissions)} jobs in one submission exceeds"
            f" the cap of {MAX_BATCH_JOBS}"
        )
    out = []
    for i, sub in enumerate(submissions):
        at = f"{where}jobs[{i}]: " if len(submissions) > 1 else where
        if not isinstance(sub, dict):
            raise MalformedRequestError(
                f"{at}a submission must be an object,"
                f" got {type(sub).__name__}"
            )
        kind, payload = sub.get("kind"), sub.get("payload", {})
        if not isinstance(kind, str) or not kind:
            raise MalformedRequestError(
                f"{at}'kind' must be a non-empty string"
            )
        if kind not in RUNNERS:
            raise UnknownJobKindError(
                f"{at}unknown job kind {kind!r}"
                f" (known: {', '.join(sorted(RUNNERS))})"
            )
        if not isinstance(payload, dict):
            raise MalformedRequestError(
                f"{at}'payload' must be an object,"
                f" got {type(payload).__name__}"
            )
        if kind in ("run", "sim") and not has_placeholders(payload):
            # Construct the config the payload describes now, so a bad
            # grid corner fails the submission and not a worker.
            # ($winner placeholders only get their values at launch.)
            try:
                if kind == "sim":
                    sim_config(payload)
                else:
                    HPLConfig.from_dict(payload)
            except ConfigError as exc:
                raise ConfigError(f"{at}{exc}") from None
        try:
            item_timeout = float(sub.get("timeout", timeout))
            item_retries = int(sub.get("max_retries", max_retries))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedRequestError(
                f"{at}bad timeout/max_retries: {exc}"
            ) from None
        if not math.isfinite(item_timeout) or item_timeout < 0:
            raise MalformedRequestError(
                f"{at}timeout must be finite and >= 0, got {item_timeout}"
            )
        if item_retries < 0:
            raise MalformedRequestError(
                f"{at}max_retries must be >= 0, got {item_retries}"
            )
        parents = sub.get("depends_on", depends_on)
        if not isinstance(parents, (list, tuple)) or not all(
                isinstance(p, str) and p for p in parents):
            raise MalformedRequestError(
                f"{at}'depends_on' must be a list of job id strings"
            )
        out.append((kind, payload, item_timeout, item_retries,
                    list(dict.fromkeys(parents))))
    return out


def _lease_ttl(ttl) -> float:
    """A lease TTL from raw request data: a finite number > 0.

    A NaN would violate the lease table's NOT NULL; an infinite one
    would never expire, and lease expiry is the only thing that
    recovers a dead supervisor's jobs.  A JSON ``true`` is no number.
    """
    if isinstance(ttl, bool):
        raise MalformedRequestError(f"bad ttl: {ttl!r}")
    try:
        ttl = float(ttl)
    except (TypeError, ValueError) as exc:
        raise MalformedRequestError(f"bad ttl: {exc}") from None
    if not math.isfinite(ttl) or ttl <= 0:
        raise MalformedRequestError(
            f"ttl must be finite and > 0, got {ttl}"
        )
    return ttl


class Service(ServiceFacade):
    """One service instance rooted at a workdir (queue + cache on disk).

    The queue is one :class:`~repro.service.store.JobStore` in the
    workdir itself, beside the content-addressed result cache.  A
    workdir still laid out as ``shards/NN/`` is refused with a
    :class:`ConfigError` rather than served as an empty queue.
    ``shards``: ignored; goes with the benchmark harness's next change.
    """

    #: Growth factor of a worker pool's idle poll on this backend: an
    #: empty claim is one local query, so the poll stays flat.
    poll_backoff = 1.0

    def __init__(self, workdir=DEFAULT_WORKDIR,
                 backoff_base: float = 0.5, shards=None,
                 busy_timeout: float = 30.0) -> None:
        self.workdir = os.fspath(workdir)
        if glob.glob(os.path.join(glob.escape(self.workdir), "shards", "*",
                                  "jobs.sqlite")):
            raise ConfigError(
                f"{self.workdir} holds a sharded queue (shards/NN/"
                f"jobs.sqlite), which this release cannot serve; drain it"
                f" with the previous release"
            )
        self.store = JobStore(self.workdir, busy_timeout=busy_timeout)
        self.cache = ResultCache(os.path.join(self.workdir, "cache"))
        self.backoff_base = backoff_base
        self.campaign_store = CampaignStore(
            os.path.join(self.workdir, "campaigns"))
        # Dependency-aware release: the resolver hangs off the store's
        # terminal hook so a parent finishing releases (or cancels) its
        # children event-driven.  The opening sweep is crash recovery --
        # a coordinator SIGKILLed between a parent's commit and its
        # children's release reconciles here.
        self.dag = DagResolver(self.store)
        self.store.set_terminal_hook(self.dag.on_terminal)
        self.dag.sweep()
        # The event feed: tails the audit log with resumable cursors
        # and wakes long-poll subscribers on each event.  Holds no
        # subscriber state, so constructing it is cheap even for
        # one-shot CLI calls.
        self.broker = EventBroker(self.store)
        # Pools built by worker_pool(): an event through this service
        # that makes a job claimable wakes them.  Weak references, so a
        # finished pool costs nothing.
        self._pools: weakref.WeakSet = weakref.WeakSet()
        self._pools_lock = threading.Lock()
        # In place of the hook the broker installed for itself.
        self.store.set_event_hook(self._on_event)

    def _on_event(self, record: dict) -> None:
        """The store's event hook: wake feed readers, then idle pools."""
        self.broker.wake(record)
        if makes_claimable(record):
            with self._pools_lock:
                pools = list(self._pools)
            for pool in pools:
                pool.wake()

    # -- submission ------------------------------------------------------
    #
    # One way into the queue: ``submit_many`` turns submissions into
    # jobs and ``add_batch`` inserts them.  ``submit``, ``submit_sweep``
    # and ``submit_campaign`` (and through them every HTTP submit route
    # and the CLI) are callers of it, so what a well-formed submission
    # is gets decided in ``_validated`` and nowhere else.

    def _parent_states(self, parents) -> dict:
        """Each parent's state, in one store read; all must exist.

        :class:`UnknownParentError` (404) names the first that does
        not.  A submission cannot create a cycle -- its own id does not
        exist yet, so a self- or forward-reference fails this check;
        cyclic *stage* graphs are rejected by the campaign expander
        before anything is enqueued.
        """
        states = self.store.states(parents)
        for pid in parents:
            if pid not in states:
                raise UnknownParentError(f"unknown parent job: {pid}")
        return states

    def submit_many(self, submissions, timeout: float = 0.0,
                    max_retries: int = 2,
                    depends_on=()) -> list[SubmitReceipt]:
        """Submit N jobs in one store transaction.

        ``submissions`` is a sequence of dicts, each with ``kind`` and
        ``payload`` plus optional per-item ``timeout`` / ``max_retries``
        / ``depends_on`` overriding the call-level defaults.  Returns
        one :class:`SubmitReceipt` per submission, **in request order**:

        * a payload whose content key already has a cached result is
          recorded as a DONE job (``cached``) and never enters the
          queue;
        * one whose key matches an active job -- in the queue or earlier
          in this very call -- is deduplicated to that job's id;
        * everything else becomes a PENDING job, or a BLOCKED one when
          ``depends_on`` names parents that are not all DONE yet (a
          failed parent cancels it instead).  Parent ids are part of
          the content key -- a reduce over one grid is not a reduce over
          another -- so cache reuse and dedup stay correct for
          dependent jobs.

        Everything is validated before anything is enqueued, so a
        malformed item rejects the whole call with nothing inserted,
        and the insert is one ``BEGIN IMMEDIATE`` instead of one per
        job -- per the tiled-algorithms rule that per-item
        overhead caps sustained throughput.  ``depends_on`` may only
        name jobs that already exist; items cannot reference each other
        (their ids are not assigned until the call commits) -- use a
        campaign for staged graphs.
        """
        items = _validated(submissions, timeout, max_retries, depends_on)
        # One read for every distinct parent of the call, not one per
        # item and parent.
        states = self._parent_states(
            list(dict.fromkeys(p for *_, parents in items for p in parents)))
        staged: list[tuple[Job, bool]] = []
        for kind, payload, item_timeout, item_retries, parents in items:
            key = payload_key(kind, payload, parents=parents)
            job = Job(
                id=new_job_id(), kind=kind, payload=payload, key=key,
                timeout=item_timeout, max_retries=item_retries,
                state=(JobState.PENDING
                       if all(states[p] is JobState.DONE for p in parents)
                       else JobState.BLOCKED),
                depends_on=parents,
            )
            dedup = kind not in UNCACHED_KINDS
            if dedup and key in self.cache:
                # A cached result under a parent-aware key implies the
                # same child of the same parents already completed, so
                # the parents were DONE -- serving it needs no release.
                # It is a new DONE row, never a twin of an active job.
                job.state = JobState.DONE
                job.result_key = key
                job.cached = True
                dedup = False
            staged.append((job, dedup))
        receipts: list[SubmitReceipt] = []
        blocked: list[Job] = []
        for (job, _), (_, existing) in zip(
                staged, self.store.add_batch(staged)):
            if existing is not None:
                receipts.append(SubmitReceipt(deduped=[existing.id]))
            elif job.cached:
                receipts.append(SubmitReceipt(cached=[job.id]))
            else:
                receipts.append(SubmitReceipt(new=[job.id]))
                if job.state is JobState.BLOCKED:
                    blocked.append(job)
        if blocked:
            # Close the submit-vs-completion race: a parent that turned
            # terminal between the state read above and the insert
            # fired its hook before these children's edges existed.
            # One more read says which children need settling.
            now = self.store.states(list(dict.fromkeys(
                p for job in blocked for p in job.depends_on)))
            for job in blocked:
                if any(now[p].terminal for p in job.depends_on):
                    self.dag.reconcile(job.id)
        return receipts

    def submit(self, kind: str, payload: dict, timeout: float = 0.0,
               max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Submit one job: :meth:`submit_many` of a single item."""
        return self.submit_many(
            [{"kind": kind, "payload": payload}], timeout=timeout,
            max_retries=max_retries, depends_on=depends_on)[0]

    def submit_sweep(self, sweep: Sweep | dict, timeout: float = 0.0,
                     max_retries: int = 2, depends_on=()) -> SubmitReceipt:
        """Submit every unique point of a :class:`Sweep` (or of its
        spec dict); the merged receipt."""
        if isinstance(sweep, dict):
            sweep = Sweep.from_spec(sweep)
        return SubmitReceipt.merged(self.submit_many(
            sweep.submissions(), timeout=timeout,
            max_retries=max_retries, depends_on=depends_on))

    # -- campaigns -------------------------------------------------------

    def submit_campaign(self, spec: dict, timeout: float = 0.0,
                        max_retries: int = 2) -> CampaignView:
        """Expand a staged campaign spec into a job DAG and submit it.

        Every stage is validated (shape, submissions, acyclic ``after``
        graph -- :class:`~repro.errors.CycleError`) before the first is
        enqueued; the stages then go in one :meth:`submit_many` each, in
        topological order, every job of a stage depending on every job
        of each parent stage.  Returns the campaign's initial progress
        view.
        """
        name, stages, order = parse_campaign_spec(spec)
        for stage in stages:
            _validated(stage.submissions, timeout, max_retries, (),
                       where=f"stage {stage.name!r}: ")
        by_name = {s.name: s for s in stages}
        stage_jobs: dict[str, list[str]] = {}
        for stage_name in order:
            stage = by_name[stage_name]
            receipts = self.submit_many(
                stage.submissions, timeout=timeout,
                max_retries=max_retries,
                depends_on=[jid for pname in stage.after
                            for jid in stage_jobs[pname]])
            stage_jobs[stage_name] = [jid for r in receipts
                                      for jid in r.job_ids]
        record = make_record(new_campaign_id(), name, [
            {"name": s.name, "kind": s.kind, "after": list(s.after),
             "job_ids": stage_jobs[s.name]}
            for s in stages
        ])
        self.campaign_store.put(record)
        return build_campaign_view(record, self.store)

    def campaign(self, campaign_id: str) -> CampaignView:
        """Live per-stage progress for one campaign."""
        return build_campaign_view(
            self.campaign_store.get(campaign_id), self.store)

    def campaign_dag(self, campaign_id: str) -> DagView:
        """The campaign's dependency graph with live node states."""
        return build_dag_view(
            self.campaign_store.get(campaign_id), self.store)

    def campaigns(self) -> list[CampaignView]:
        """Progress views for every recorded campaign, oldest first."""
        return [build_campaign_view(r, self.store)
                for r in self.campaign_store.list()]

    # -- events ----------------------------------------------------------

    def campaign_job_ids(self, campaign_id: str) -> list[str]:
        """Every job id a campaign expanded into, stage order."""
        record = self.campaign_store.get(campaign_id)
        return [jid for stage in record["stages"]
                for jid in stage["job_ids"]]

    def events(self, cursor: str | None = None, timeout: float = 0.0,
               limit: int = 500, job_ids=None, kinds=None,
               states=None, campaign: str | None = None,
               ) -> tuple[list[EventView], str, bool]:
        """One (optionally blocking) read of the merged event feed.

        Returns ``(events, next_cursor, timed_out)`` -- the long-poll
        contract of ``GET /v1/events``.  ``cursor`` is an opaque token
        from a previous call, ``"begin"`` (everything the log holds --
        the default), or ``"now"`` (only what happens from here on).
        With ``timeout > 0`` the call blocks until a matching event
        arrives.  A ``campaign`` filter expands to the campaign's
        job-id set (404 on an unknown campaign); combined with an
        explicit ``job_ids`` the two sets intersect.  Under a job-id
        filter ``"begin"`` starts where the earliest of those jobs was
        submitted (:meth:`EventBroker.begin_offset`).
        """
        if limit < 1:
            raise MalformedRequestError(f"limit must be >= 1, got {limit}")
        if campaign is not None:
            campaign_ids = set(self.campaign_job_ids(campaign))
            job_ids = (campaign_ids if job_ids is None
                       else campaign_ids & set(job_ids))
        filter = EventFilter.build(job_ids=job_ids, kinds=kinds,
                                   states=states)
        return self.broker.poll(cursor, limit=limit,
                                filter=None if filter.empty else filter,
                                timeout=timeout)

    # The frozen benchmark (benchmarks/e2e/layers.py) times this call
    # under its old name; nothing in src/ uses the alias.
    events_page = events

    # -- queries ---------------------------------------------------------

    def status(self, state: str | None = None, kind: str | None = None,
               limit: int | None = None,
               cursor: str | None = None) -> QueuePage:
        """One filtered, windowed page of the queue (a :class:`QueuePage`).

        ``state`` filters on lifecycle state (``"DONE"`` etc.), ``kind``
        on job kind; ``limit`` caps the page, oldest match first, and
        ``cursor`` -- the opaque continuation token the previous page
        returned (its ``.cursor``; ``None`` on the last page) -- says
        where it starts: past that page's last ``(created, id)``, so a
        job that leaves the filter between pages moves no other.
        ``counts`` and ``outstanding`` on the page always cover the
        whole queue.  Expired leases are swept first so the page never
        shows a dead worker's jobs as RUNNING.
        """
        after = None if cursor is None else decode_queue_cursor(cursor)
        if state is not None:
            try:
                state = JobState(state).value
            except ValueError:
                raise MalformedRequestError(
                    f"unknown state {state!r} (one of:"
                    f" {', '.join(s.value for s in JobState)})"
                ) from None
        if limit is not None and limit < 0:
            raise MalformedRequestError(f"limit must be >= 0, got {limit}")
        self.store.expire_leases()
        paged = limit is not None and limit > 0
        # One row past the page says whether another page follows.
        jobs = self.store.list(state=state, kind=kind, after=after,
                               limit=limit + 1 if paged else limit)
        total = self.store.count_matching(state=state, kind=kind)
        next_cursor = None
        if paged and len(jobs) > limit:
            jobs = jobs[:limit]
            next_cursor = encode_queue_cursor(jobs[-1].created, jobs[-1].id)
        return QueuePage(
            jobs=tuple(JobView.from_job(j) for j in jobs),
            counts=self.store.counts(),
            total=total,
            outstanding=self.store.outstanding(),
            limit=limit, state=state, kind=kind,
            workdir=self.workdir, cursor=next_cursor,
        )

    def job(self, job_id: str) -> JobView:
        """The :class:`JobView` projection of one job."""
        return JobView.from_job(self.store.get(job_id))

    def result(self, job_id: str) -> ResultView:
        """The :class:`ResultView` for one job: its result once DONE."""
        job = self.store.get(job_id)
        view = JobView.from_job(job)
        record = (self.cache.get(job.result_key)
                  if job.state is JobState.DONE else None)
        if record is None:
            return ResultView(job=view, ready=False, result=None)
        return ResultView(job=view, ready=True, result=record["result"])

    def healthz(self) -> dict:
        """Liveness plus load: per-state depths and live leases.

        A wedged store is reported, not raised: ``ok`` is False with
        the ``error`` text and ``queue`` / ``leases`` are None, so the
        probe itself never goes dark.
        """
        try:
            queue = self.store.counts()
            leases = len(self.store.active_leases())
        except StoreUnavailableError as exc:
            return {"ok": False, "workdir": self.workdir, "error": str(exc),
                    "queue": None, "leases": None}
        return {"ok": True, "workdir": self.workdir, "queue": queue,
                "leases": leases}

    # -- leases (worker pools, embedded and remote) ----------------------

    def claim_jobs(self, worker: str, n: int = 1,
                   ttl: float = 30.0) -> tuple[Lease | None, list[Job]]:
        """Lease up to ``n`` ready jobs to a named worker pool.

        Jobs whose result is already cached (another submitter's twin
        completed while the job sat in the queue) are completed on the
        spot, in the claim's own transaction, and never shipped, so no
        child process is burned on them.
        ``worker`` / ``n`` / ``ttl`` may be raw request data.
        """
        if not isinstance(worker, str) or not worker:
            raise MalformedRequestError(
                "'worker' must be a non-empty string"
            )
        if isinstance(n, bool):
            raise MalformedRequestError(f"bad n: {n!r}")
        try:
            n = int(n)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedRequestError(f"bad n: {exc}") from None
        if n < 1:
            raise MalformedRequestError(f"n must be >= 1, got {n}")
        return self.store.claim_batch(
            worker, limit=n, ttl=_lease_ttl(ttl),
            cached=lambda job: (job.kind not in UNCACHED_KINDS
                                and job.key in self.cache))

    def heartbeat(self, lease_id: str, ttl: float = 30.0) -> Lease:
        """Extend a live lease; raises ``LeaseExpiredError`` if lapsed."""
        return self.store.heartbeat_lease(lease_id, ttl=_lease_ttl(ttl))

    def complete_job(self, job_id: str, lease_id: str,
                     result: dict) -> JobView:
        """Accept a leased job's result: cache it, then mark DONE.

        The cache write is content-addressed and idempotent, so it is
        safe even when the lease guard then rejects a late upload.  A
        result larger than :data:`MAX_RESULT_BYTES` is refused with
        :class:`~repro.errors.ResultTooLargeError` and nothing is
        stored; the caller records the attempt as failed.
        """
        if not isinstance(result, dict):
            raise MalformedRequestError(
                f"result must be a JSON object,"
                f" got {type(result).__name__}"
            )
        size = len(canonical_json(result).encode("utf-8"))
        if size > MAX_RESULT_BYTES:
            raise ResultTooLargeError(
                f"result of {size} bytes exceeds the"
                f" {MAX_RESULT_BYTES}-byte limit"
            )
        job = self.store.get(job_id)
        # The stored key, not a recomputation: for dependent jobs the
        # key folds in the parent ids (and the payload may have been a
        # placeholder form the worker resolved before running).
        self.cache.put(job.key, job.kind, job.payload, result)
        return JobView.from_job(
            self.store.complete_leased(job_id, lease_id, job.key))

    def fail_job(self, job_id: str, lease_id: str, error: str) -> JobView:
        """Record a leased attempt's failure (bounded retry applies)."""
        return JobView.from_job(self.store.fail_leased(
            job_id, lease_id, str(error),
            backoff_base=self.backoff_base,
        ))

    # -- control ---------------------------------------------------------

    def cancel_job(self, job_id: str) -> tuple[bool, JobView]:
        """Idempotently cancel one job; ``(flipped, current_view)``.

        An unknown id raises :class:`UnknownJobError`; a job already
        terminal (including already CANCELLED) is *not* an error --
        ``flipped`` is False and the view reports its current state, so
        racing cancellers (a user and the DAG failure propagation) both
        get a coherent answer.
        """
        self.store.get(job_id)  # 404 on unknown id
        flipped = self.store.cancel(job_id)
        return flipped, self.job(job_id)

    def worker_pool(self, options: WorkerOptions | None = None,
                    worker: str | None = None) -> WorkerPool:
        """A :class:`WorkerPool` leasing from this service in process.

        Every transition commits through the service's own store
        handle, so the DAG and event hooks fire for embedded pools too
        -- and a submit, release or requeue made through this service
        wakes the pool at once (see :meth:`WorkerPool.wake`).
        """
        pool = WorkerPool(self, options, worker)
        with self._pools_lock:
            self._pools.add(pool)
        return pool

    def run_workers(self, options: WorkerOptions | None = None,
                    **overrides) -> PoolSummary:
        """Drain the queue with an in-process worker pool (blocking).

        Accepts a :class:`WorkerOptions` bundle; bare keyword overrides
        (``run_workers(n=4, max_seconds=60)``) are folded into it.
        """
        options = (options or WorkerOptions()).replace(**overrides)
        return self.worker_pool(options).run()
