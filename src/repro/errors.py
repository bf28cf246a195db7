"""Exception hierarchy for pyroHPL.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all pyroHPL errors.

    Errors that cross the service's HTTP boundary carry two class
    attributes consumed by the v1 wire contract: ``code``, a stable
    machine-readable identifier clients can switch on, and
    ``http_status``, the status the server maps the error to.
    """

    code = "internal"
    http_status = 500


class ConfigError(ReproError, ValueError):
    """An :class:`~repro.config.HPLConfig` (or machine spec) is invalid."""

    code = "bad_config"
    http_status = 400


class CommError(ReproError):
    """Base class for errors raised by the simulated MPI runtime."""


class DeadlockError(CommError):
    """A blocking receive waited longer than the fabric watchdog allows.

    In a correctly written SPMD program every receive is eventually
    matched; a watchdog timeout almost always indicates a communication
    mismatch (wrong tag, wrong peer, or a rank that exited early).
    """


class AbortError(CommError):
    """The fabric was aborted because a peer rank raised an exception.

    Raised inside still-running ranks so the whole SPMD job unwinds
    instead of deadlocking on messages the dead rank will never send.
    """


class TruncationError(CommError):
    """A message was received into a buffer smaller than the payload."""


class SpmdError(ReproError):
    """One or more ranks of an SPMD job raised; wraps the rank errors."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(
            f"SPMD job failed on rank(s) {ranks}: {type(first).__name__}: {first}"
        )


class VerificationError(ReproError):
    """The HPL residual test failed (the computed solution is wrong)."""


class SingularMatrixError(ReproError):
    """A zero pivot was encountered during panel factorization."""


class ScheduleError(ReproError):
    """The discrete-event timeline simulator was given an invalid DAG."""


class ServiceError(ReproError):
    """Base class for errors raised by the batch job service."""

    code = "service_error"
    http_status = 422


class UnknownJobError(ServiceError):
    """A job id was not found in the service's store."""

    code = "unknown_job"
    http_status = 404


class UnknownJobKindError(ServiceError):
    """A job names a kind with no registered runner."""

    code = "unknown_kind"
    http_status = 422


class MalformedRequestError(ServiceError):
    """A request body is not JSON, not an object, or missing fields."""

    code = "malformed"
    http_status = 400


class UnknownRouteError(ServiceError):
    """A request addressed an endpoint the v1 API does not define."""

    code = "unknown_route"
    http_status = 404


class StoreUnavailableError(ServiceError):
    """The job store's SQLite file cannot be read or written right now.

    A hung writer holds the file lock past the busy timeout, or the disk
    failed.  Every call that touches the queue raises this instead of
    answering from a queue it could not read; the caller may retry once
    the store recovers.
    """

    code = "store_unavailable"
    http_status = 503


class ResultTooLargeError(ServiceError):
    """A job result, or a request body, exceeds the service's size cap.

    Every result travels inline, so a result whose canonical JSON
    encoding is larger than :data:`repro.service.api.MAX_RESULT_BYTES`
    is refused rather than stored; the worker pool records it as the
    attempt's failure.
    """

    code = "too_large"
    http_status = 413


class BadCursorError(ServiceError):
    """An event/queue cursor token is malformed or ahead of the log.

    Cursors are opaque continuation tokens; a token the server cannot
    decode, or one whose position lies beyond the end of the audit log,
    is rejected outright --
    the client should restart from ``begin`` (or ``now``).
    """

    code = "bad_cursor"
    http_status = 422


class EventsTruncatedError(ServiceError):
    """An event cursor points before a rotated/compacted audit log.

    The events the cursor refers to no longer exist, so resuming from
    it cannot be exactly-once.  The client must accept the gap: restart
    from ``begin`` (replays what survived compaction) or ``now``.
    """

    code = "events_truncated"
    http_status = 410


class CycleError(ServiceError):
    """A submission's dependency edges form a cycle.

    Raised at submit time, before any job of the submission is
    enqueued: a cyclic stage graph can never release.
    """

    code = "cycle_detected"
    http_status = 422


class UnknownParentError(ServiceError):
    """A submission's ``depends_on`` names a job id the store does not know."""

    code = "unknown_parent"
    http_status = 404


class UnknownCampaignError(ServiceError):
    """A campaign id was not found in the service's campaign store."""

    code = "unknown_campaign"
    http_status = 404


class BackpressureError(ServiceError):
    """Base for 429 admission rejections: the request itself is fine.

    Carries ``retry_after`` (seconds), which the server surfaces as the
    HTTP ``Retry-After`` header and the clients honor when retrying
    transparently.  Submissions are dedup-safe, so retrying a rejected
    submit can never enqueue twice.
    """

    code = "backpressure"
    http_status = 429

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(BackpressureError):
    """The queue depth crossed the coordinator's admission watermark.

    New work is refused until workers drain the backlog below the
    watermark; status/result/cancel traffic is never refused.
    """

    code = "overloaded"
    http_status = 429


class RateLimitedError(BackpressureError):
    """One client (by ``X-Client-Id``) exceeded its token-bucket rate."""

    code = "rate_limited"
    http_status = 429


class LeaseConflictError(ServiceError):
    """A lease operation named a job held by a different live lease."""

    code = "conflict"
    http_status = 409


class LeaseExpiredError(LeaseConflictError):
    """The named lease no longer exists (it expired or never was).

    A worker reporting a result under an expired lease must drop the
    job: the store has already requeued it for someone else.
    """

    code = "lease_expired"
    http_status = 409
