"""Admission control for the HTTP front-end: a queue-depth watermark.

The coordinator must refuse work it cannot absorb *before* the refusal
itself becomes expensive -- the service-tier analogue of the paper's
rule that the critical path must never block on a slow consumer.  One
gate guards the submit endpoints (``POST /v1/jobs``,
``/v1/jobs/batch``, ``/v1/campaigns``): when the number of outstanding
(non-terminal) jobs is at or above ``max_queue_depth``, submissions are
rejected with 429 ``overloaded`` and a ``Retry-After`` hint.  Depth is
read through a short-TTL cache (:attr:`depth_ttl`) so a storm of
submissions costs one store scan per window, not one per request, and
every accepted submission nudges the cached figure forward
(:meth:`AdmissionController.note_enqueued`); the watermark is therefore
*soft* by at most one window's worth of admissions.

Reads (status / result / healthz) and relief traffic (cancel, lease
completions) are never gated: a client must always be able to observe
and shrink the backlog.
"""

from __future__ import annotations

import math
import threading
import time

from ..errors import OverloadedError


class AdmissionController:
    """The submit-path gatekeeper one HTTP server owns.

    ``max_queue_depth=0`` disables the watermark (the default), so a
    server constructed without admission flags admits everything.
    """

    def __init__(self, max_queue_depth: int = 0,
                 retry_after: float = 1.0,
                 depth_ttl: float = 0.2) -> None:
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self.max_queue_depth = int(max_queue_depth)
        self.retry_after = float(retry_after)
        self.depth_ttl = float(depth_ttl)
        self._lock = threading.Lock()
        self._depth = 0
        self._depth_stamp = -math.inf
        #: Rejection tally served on /v1/healthz for operators.
        self.rejected_overloaded = 0

    def check_submit(self, outstanding_fn) -> None:
        """Admit or reject one submission request.

        ``outstanding_fn`` reads the store's current non-terminal depth;
        it is only called when the cached figure is older than
        :attr:`depth_ttl`.  Raises :class:`OverloadedError`.
        """
        if self.max_queue_depth <= 0:
            return
        now = time.monotonic()
        with self._lock:
            if now - self._depth_stamp > self.depth_ttl:
                self._depth = int(outstanding_fn())
                self._depth_stamp = now
            depth = self._depth
            if depth >= self.max_queue_depth:
                self.rejected_overloaded += 1
        if depth >= self.max_queue_depth:
            raise OverloadedError(
                f"queue depth {depth} is at the admission watermark"
                f" ({self.max_queue_depth}); retry after the backlog"
                f" drains",
                retry_after=self.retry_after,
            )

    def note_enqueued(self, njobs: int) -> None:
        """Advance the cached depth without waiting for the TTL.

        Called after every successful submission so a burst inside one
        TTL window walks the cached figure toward the watermark instead
        of sailing past it unmetered.
        """
        if self.max_queue_depth > 0 and njobs > 0:
            with self._lock:
                self._depth += njobs

    def stats(self) -> dict:
        """The figures /v1/healthz serves under ``"admission"``."""
        with self._lock:
            return {
                "max_queue_depth": self.max_queue_depth,
                "rejected_overloaded": self.rejected_overloaded,
            }
