"""Admission control for the HTTP front-end: watermark + rate limits.

The coordinator must refuse work it cannot absorb *before* the refusal
itself becomes expensive -- the service-tier analogue of the paper's
rule that the critical path must never block on a slow consumer.  Two
independent gates guard the submit endpoints (``POST /v1/jobs``,
``/v1/jobs/batch``, ``/v1/campaigns``):

* **Queue-depth watermark** -- when the number of outstanding
  (non-terminal) jobs is at or above ``max_queue_depth``, submissions
  are rejected with 429 ``overloaded`` and a ``Retry-After`` hint.
  Depth is read through a short-TTL cache (:attr:`depth_ttl`) so a
  storm of submissions costs one store scan per window, not one per
  request; the watermark is therefore *soft* by at most one window's
  worth of admissions.
* **Per-client token bucket** -- each client (the ``X-Client-Id``
  header, falling back to the peer address) gets ``rate_limit`` tokens
  per second with a burst of ``rate_burst``; a request finding the
  bucket empty is rejected with 429 ``rate_limited`` and the time until
  the next token as ``Retry-After``.  One request costs one token
  regardless of batch size -- batching is the *reward*, not a loophole,
  per the tiled-algorithms rule that per-item overhead is what caps
  sustained throughput.

Reads (status / result / healthz) and relief traffic (cancel, lease
completions) are never gated: a client must always be able to observe
and shrink the backlog.
"""

from __future__ import annotations

import math
import threading
import time

from ..errors import OverloadedError, RateLimitedError

#: Buckets idle longer than this are eligible for eviction.
_BUCKET_IDLE_SECONDS = 120.0
#: Soft cap on tracked clients; crossing it triggers an idle sweep.
_MAX_CLIENTS = 4096


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float,
                 now: float | None = None) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic() if now is None else now

    def take(self, now: float | None = None, cost: float = 1.0) -> float:
        """Try to spend ``cost`` tokens; 0.0 on success, else the wait.

        On refusal nothing is spent and the return value is how many
        seconds until the bucket will hold ``cost`` tokens again.
        """
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate if self.rate > 0 \
            else float("inf")


class AdmissionController:
    """The submit-path gatekeeper one HTTP server owns.

    ``max_queue_depth=0`` disables the watermark; ``rate_limit=0``
    disables per-client limiting -- both default off, so a server
    constructed without admission flags behaves exactly as before.
    """

    def __init__(self, max_queue_depth: int = 0, rate_limit: float = 0.0,
                 rate_burst: float | None = None,
                 retry_after: float = 1.0,
                 depth_ttl: float = 0.2) -> None:
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if rate_limit < 0:
            raise ValueError(f"rate_limit must be >= 0, got {rate_limit}")
        self.max_queue_depth = int(max_queue_depth)
        self.rate_limit = float(rate_limit)
        # Default burst: one second's worth of tokens, but never < 1 so
        # a tiny rate still admits single requests.
        self.rate_burst = max(1.0, float(
            rate_burst if rate_burst is not None else rate_limit
        ))
        self.retry_after = float(retry_after)
        self.depth_ttl = float(depth_ttl)
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._depth = 0
        self._depth_stamp = -math.inf
        #: Rejection tallies served on /v1/healthz for operators.
        self.rejected_overloaded = 0
        self.rejected_rate_limited = 0

    # -- rate limiting ---------------------------------------------------

    def _bucket(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            if len(self._buckets) >= _MAX_CLIENTS:
                self._evict_idle(now)
            bucket = TokenBucket(self.rate_limit, self.rate_burst, now=now)
            self._buckets[client_id] = bucket
        return bucket

    def _evict_idle(self, now: float) -> None:
        """Drop buckets idle past the window (full buckets lose nothing)."""
        idle = [cid for cid, b in self._buckets.items()
                if now - b.stamp > _BUCKET_IDLE_SECONDS]
        for cid in idle:
            del self._buckets[cid]
        if len(self._buckets) >= _MAX_CLIENTS:
            # Every bucket is hot; shed the oldest half so memory stays
            # bounded even under a rotating-client-id attack.
            by_age = sorted(self._buckets, key=lambda c: self._buckets[c].stamp)
            for cid in by_age[:len(by_age) // 2]:
                del self._buckets[cid]

    # -- the gate --------------------------------------------------------

    def check_submit(self, client_id: str, outstanding_fn) -> None:
        """Admit or reject one submission request.

        ``outstanding_fn`` reads the store's current non-terminal depth;
        it is only called when the cached figure is older than
        :attr:`depth_ttl`.  Raises :class:`RateLimitedError` (the
        cheaper check, so a hammering client never triggers depth scans)
        or :class:`OverloadedError`.
        """
        now = time.monotonic()
        if self.rate_limit > 0:
            with self._lock:
                wait = self._bucket(client_id, now).take(now=now)
            if wait > 0:
                with self._lock:
                    self.rejected_rate_limited += 1
                raise RateLimitedError(
                    f"client {client_id!r} exceeded {self.rate_limit:g}"
                    f" submit request(s)/s (burst {self.rate_burst:g})",
                    retry_after=max(wait, 0.05),
                )
        if self.max_queue_depth > 0:
            with self._lock:
                if now - self._depth_stamp > self.depth_ttl:
                    self._depth = int(outstanding_fn())
                    self._depth_stamp = now
                depth = self._depth
            if depth >= self.max_queue_depth:
                with self._lock:
                    self.rejected_overloaded += 1
                raise OverloadedError(
                    f"queue depth {depth} is at the admission watermark"
                    f" ({self.max_queue_depth}); retry after the backlog"
                    f" drains",
                    retry_after=self.retry_after,
                )

    def note_enqueued(self, njobs: int) -> None:
        """Advance the cached depth without waiting for the TTL.

        Called after a successful submission so a burst inside one TTL
        window walks the cached figure toward the watermark instead of
        sailing past it unmetered.
        """
        if self.max_queue_depth > 0 and njobs > 0:
            with self._lock:
                self._depth += njobs

    def stats(self) -> dict:
        """The figures /v1/healthz serves under ``"admission"``."""
        with self._lock:
            return {
                "max_queue_depth": self.max_queue_depth,
                "rate_limit": self.rate_limit,
                "rate_burst": self.rate_burst if self.rate_limit > 0 else 0,
                "clients": len(self._buckets),
                "rejected_overloaded": self.rejected_overloaded,
                "rejected_rate_limited": self.rejected_rate_limited,
            }
