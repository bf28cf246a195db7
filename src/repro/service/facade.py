"""The call vocabulary of a service, and everything derived from it.

A caller talks to a service through one set of calls whether the
service is in this process (:class:`~repro.service.api.Service`) or
behind a URL (:class:`~repro.service.http.ServiceClient`).  Both answer
the *primitive* calls with the same names, signatures and return types:

``submit``, ``submit_many``, ``submit_sweep``, ``submit_campaign``,
``status``, ``job``, ``result_view``, ``read_result_chunk``,
``cancel_job``, ``campaign``, ``campaigns``, ``campaign_dag``,
``events``, ``healthz`` and the lease calls ``claim_jobs``,
``heartbeat``, ``complete_job``, ``fail_job`` (plus the ``poll_backoff``
class constant).

:class:`ServiceFacade`, which both inherit, holds what is *derived* from
those -- ``counts``, ``result``, ``download_result``, ``watch``,
``wait`` -- written once, against the primitive calls only, so a
consumer (the CLI, the worker pool, ``status --follow``) is written once
too and where the service lives is data.
"""

from __future__ import annotations

import hashlib
import io
import time
from typing import BinaryIO

from ..errors import ChunkIntegrityError, EventsTruncatedError, ServiceError
from .events import BEGIN
from .streams import DEFAULT_CHUNK_SIZE, decode_result, encode_result
from .views import TERMINAL_STATES, EventView, JobView, ResultView


class WaitTimeout(ServiceError, TimeoutError):
    """A ``wait()`` deadline passed with jobs still outstanding."""

    def __init__(self, outstanding: list[str], timeout: float) -> None:
        self.outstanding = list(outstanding)
        super().__init__(
            f"timed out after {timeout:.3g}s waiting for"
            f" {len(self.outstanding)} job(s):"
            f" {', '.join(self.outstanding)}"
        )


class ServiceFacade:
    """The derived calls, shared by every backend.

    A backend supplies the primitive calls (see the module docstring);
    nothing here touches a store, a cache or a socket directly.
    """

    #: Bytes per :meth:`read_result_chunk` call when resolving a
    #: streamed result; bounds the memory a download holds.
    chunk_size = DEFAULT_CHUNK_SIZE

    def counts(self) -> dict[str, int]:
        """Whole-queue job count per state (expired leases swept first)."""
        return dict(self.status(limit=0).counts)

    # -- results ---------------------------------------------------------

    def result(self, job_id: str) -> ResultView:
        """The :class:`ResultView` for one job, its body always resolved.

        A ``stream`` descriptor (the result exceeded the service's
        inline threshold) is resolved transparently: the chunks are
        read, verified against the declared size and sha256, and
        decoded, so the returned view is indistinguishable from an
        inline one.
        """
        view = self.result_view(job_id)
        if view.stream is None:
            return view
        sink = io.BytesIO()
        self._download_stream(job_id, view.stream, sink)
        return ResultView(job=view.job, ready=True,
                          result=decode_result(sink.getvalue()))

    def _download_stream(self, job_id: str, stream: dict,
                         sink: BinaryIO) -> tuple[int, str]:
        """Ranged-read a streamed result into ``sink``; verify it."""
        size = int(stream["size"])
        expected = stream["sha256"]
        hasher = hashlib.sha256()
        offset = 0
        while offset < size:
            data = self.read_result_chunk(job_id, offset, self.chunk_size)
            if not data:
                raise ChunkIntegrityError(
                    f"result stream for job {job_id} ended at byte"
                    f" {offset} of {size}"
                )
            sink.write(data)
            hasher.update(data)
            offset += len(data)
        if hasher.hexdigest() != expected:
            raise ChunkIntegrityError(
                f"downloaded result for job {job_id} does not match"
                f" its declared sha256"
            )
        return size, expected

    def download_result(self, job_id: str, sink: BinaryIO) -> dict | None:
        """Stream one job's result bytes (canonical JSON) into ``sink``.

        Large results are fetched chunk by chunk, so memory stays
        bounded by ``chunk_size``; inline results are encoded and
        written whole.  Returns ``{"size", "sha256"}`` on success, or
        ``None`` (nothing written) when the job has no result yet.
        """
        view = self.result_view(job_id)
        if view.stream is not None:
            size, sha256 = self._download_stream(job_id, view.stream, sink)
            return {"size": size, "sha256": sha256}
        if not view.ready:
            return None
        encoded = encode_result(view.result)
        sink.write(encoded)
        return {"size": len(encoded),
                "sha256": hashlib.sha256(encoded).hexdigest()}

    # -- watch & wait ----------------------------------------------------

    def watch(self, job_ids=None, kinds=None, states=None,
              campaign: str | None = None, cursor: str | None = None,
              timeout: float | None = None, poll: float = 15.0):
        """Generator of :class:`EventView`\\ s for a set of jobs.

        With ``job_ids``, the stream ends once every watched job has
        been seen reaching a terminal state; without, it streams
        matching events until ``timeout`` (forever when ``None``).
        Starts from ``cursor`` (default ``"begin"``: full replay, so a
        job that finished before the watch began is still seen
        finishing).  Raises :class:`WaitTimeout` when a deadline passes
        with watched jobs outstanding, and
        :class:`~repro.errors.UnknownJobError` for a watched id the
        service has never held.
        """
        watched = list(dict.fromkeys(job_ids)) if job_ids is not None \
            else None
        pending = set(watched) if watched is not None else None
        if pending is not None and not pending:
            return
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        token = cursor
        checked_current = False
        while True:
            budget = poll
            if deadline is not None:
                budget = min(budget, max(0.0, deadline - time.monotonic()))
            try:
                batch, token, timed_out = self.events(
                    cursor=token, timeout=budget, job_ids=watched,
                    kinds=kinds, states=states, campaign=campaign)
            except EventsTruncatedError:
                # The log was compacted past our offset; restart from
                # the new beginning and let the state check below cover
                # any transitions that fell off the log.
                token = BEGIN
                checked_current = False
                continue
            for view in batch:
                if pending is not None and view.job_id not in pending:
                    continue  # late event for an already-finished job
                yield view
                if pending is not None and view.terminal:
                    pending.discard(view.job_id)
                    if not pending:
                        return
            if pending is not None and not batch and not checked_current:
                # Caught up with nothing pending resolved: guard the
                # one hole event replay cannot cover -- a watched job
                # whose terminal event predates a compacted log.  One
                # state check per watched job, once per watch.
                checked_current = True
                for jid in sorted(pending):
                    view = self._synthesize(self.job(jid))
                    if view.terminal:
                        yield view
                        pending.discard(jid)
                if not pending:
                    return
            if deadline is not None and time.monotonic() >= deadline:
                if pending is not None:
                    raise WaitTimeout(sorted(pending), timeout)
                return

    @staticmethod
    def _synthesize(job: JobView) -> EventView:
        """An :class:`EventView` standing in for an unobserved event.

        Used where the real audit record is unavailable (a compacted
        log): the view carries the job's current state with ``kind``
        lowered from it and ``shard=-1`` marking it synthesized.
        """
        return EventView(
            cursor="", t=job.updated, job_id=job.id,
            kind=job.state.lower(), state=job.state, shard=-1,
            data={"synthesized": True},
        )

    def wait(self, job_ids,
             timeout: float | None = None) -> dict[str, ResultView]:
        """Block until every job is terminal; id -> :class:`ResultView`.

        Covers DONE, FAILED, and CANCELLED alike -- callers decide what
        failure means for them.  Rides :meth:`watch`: one long-poll
        instead of O(jobs x polls) status requests.  Raises
        :class:`WaitTimeout` if ``timeout`` seconds pass first.
        """
        outstanding = list(dict.fromkeys(job_ids))
        views: dict[str, ResultView] = {}
        try:
            for view in self.watch(job_ids=outstanding,
                                   states=TERMINAL_STATES,
                                   timeout=timeout):
                if view.terminal and view.job_id not in views:
                    views[view.job_id] = self.result(view.job_id)
        except WaitTimeout:
            raise WaitTimeout(
                [jid for jid in outstanding if jid not in views], timeout
            ) from None
        return views
