"""The call vocabulary of a service, and everything derived from it.

A caller talks to a service through one set of calls whether the
service is in this process (:class:`~repro.service.api.Service`) or
behind a URL (:class:`~repro.service.http.ServiceClient`).  Both answer
the *primitive* calls with the same names, signatures and return types:

``submit``, ``submit_many``, ``submit_sweep``, ``submit_campaign``,
``status``, ``job``, ``result``, ``cancel_job``, ``campaign``,
``campaigns``, ``campaign_dag``, ``events``, ``healthz`` and the lease
calls ``claim_jobs``, ``heartbeat``, ``complete_job``, ``fail_job``
(plus the ``poll_backoff`` class constant).

:class:`ServiceFacade`, which both inherit, holds what is *derived* from
those -- ``counts``, ``watch``, ``wait`` -- written once, against the
primitive calls only, so a consumer (the CLI, the worker pool,
``status --follow``) is written once too and where the service lives is
data.
"""

from __future__ import annotations

import time

from ..errors import ServiceError
from .views import TERMINAL_STATES, ResultView


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

    def counts(self) -> dict[str, int]:
        """Whole-queue job count per state (expired leases swept first)."""
        return dict(self.status(limit=0).counts)

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
        finishing).  Every view is an event of the log.  Raises
        :class:`WaitTimeout` when a deadline passes with watched jobs
        outstanding, and :class:`~repro.errors.UnknownJobError` after
        the first empty long-poll step for a watched id the service has
        never held.
        """
        watched = list(dict.fromkeys(job_ids)) if job_ids is not None \
            else None
        pending = set(watched) if watched is not None else None
        if pending is not None and not pending:
            return
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        token = cursor
        ids_checked = False
        while True:
            budget = poll
            if deadline is not None:
                budget = min(budget, max(0.0, deadline - time.monotonic()))
            batch, token, timed_out = self.events(
                cursor=token, timeout=budget, job_ids=watched,
                kinds=kinds, states=states, campaign=campaign)
            for view in batch:
                if pending is not None and view.job_id not in pending:
                    continue  # late event for an already-finished job
                yield view
                if pending is not None and view.terminal:
                    pending.discard(view.job_id)
                    if not pending:
                        return
            if pending is not None and not batch and not ids_checked:
                # Caught up with no watched event: an id the service
                # never held would wait forever (UnknownJobError).
                ids_checked = True
                for jid in sorted(pending):
                    self.job(jid)
            if deadline is not None and time.monotonic() >= deadline:
                if pending is not None:
                    raise WaitTimeout(sorted(pending), timeout)
                return

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
