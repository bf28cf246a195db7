"""Resumable event feed over the job store's audit log.

Every state transition the service commits is recorded, in the same
transaction, as a row of the store's ``events`` table (see
:class:`~repro.service.store.JobStore`); this module exposes that log
as a resumable stream so clients can *watch* jobs instead of polling
them -- the O(clients x poll-rate) status traffic the admission
controller otherwise has to throttle collapses to O(transitions).

The pieces:

* **Cursors** -- a cursor is one event id, encoded as an opaque base64
  token (:func:`encode_cursor` / :func:`decode_cursor`).  Ids follow
  commit order, nothing deletes from the log and ids are never reused,
  so a cursor is stable across coordinator restarts, which is what
  makes a feed resumed from its last cursor exactly-once.  The
  sentinels ``begin`` and ``now`` stand for "the whole log" (cursor 0)
  and "only what happens from here on"; under a job-id filter ``begin`` is
  where the earliest of those jobs was submitted, so waiting on a job
  never replays the log that precedes it.  A token minted before the log was
  a table (a byte offset into a JSONL file) is a ``bad_cursor``.

* **Filters** -- :class:`EventFilter` narrows a feed server-side by job
  id, audit event name (``kind``), and implied job state; filtered-out
  events still advance the cursor, so a narrow watch over a busy queue
  stays cheap for the client without ever skipping a match (and for
  the server: the filter reads raw records, views and cursor tokens are
  built for matches only).

* **:class:`EventBroker`** -- the coordinator-side fan-out.  It tails
  the log with cursor reads in id order, and wakes blocked
  long-poll subscribers from the store's event hook, falling back
  to a short re-check interval for events committed by *other*
  processes sharing the workdir.

No broker process, no message queue: the store's log is the bus, the
cursor is the subscription state, and the client holds it.  This is the
decoupled pub/sub shape of Balsam's ``MessageInterface`` fan-out with
the durable log standing in for the AMQP broker.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math
import threading
import time

from ..errors import BadCursorError
from .jobs import JobState
from .views import EventView

#: Cursor sentinels accepted wherever a token is: the start of the log,
#: and the position past everything already logged.
BEGIN = "begin"
NOW = "now"

#: Job state implied by an audit event whose record carries no explicit
#: ``state`` field.  Events absent here (``dag_hook_error``, the
#: ``stream_*`` rows of an earlier release, ...) imply no state at all.
IMPLIED_STATE = {
    "claimed": JobState.RUNNING.value,
    "launched": JobState.RUNNING.value,
    "released": JobState.PENDING.value,
    "cancelled": JobState.CANCELLED.value,
    "done": JobState.DONE.value,
    "failed": JobState.FAILED.value,
    "requeued": JobState.PENDING.value,
}


def encode_cursor(event_id: int) -> str:
    """Pack an event id into an opaque token.

    The wire shape is ``{"v": 2, "e": id}``.  Version 1 tokens held byte
    offsets into the log file of an earlier release and are refused.
    """
    payload = json.dumps({"v": 2, "e": int(event_id)},
                         separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("ascii")) \
        .decode("ascii").rstrip("=")


def _version(payload, version: int) -> bool:
    """Whether a decoded token is an object of ``version`` (``true`` and
    ``1.0`` compare equal to 1 but were never minted)."""
    return (isinstance(payload, dict) and payload.get("v") == version
            and type(payload["v"]) is int)


def _nonneg_int(value) -> bool:
    """A JSON integer >= 0 -- not a bool, which Python counts as one."""
    return type(value) is int and value >= 0


def decode_cursor(token: str) -> int:
    """Unpack a cursor token; reject anything that cannot be one.

    Raises :class:`BadCursorError` on undecodable tokens, unknown
    versions (version 1 included: a byte offset from an earlier
    release), and ids that are not integers >= 0.
    """
    try:
        padded = token + "=" * (-len(token) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeEncodeError):
        raise BadCursorError(f"undecodable cursor token: {token!r}") from None
    if _version(payload, 1):
        raise BadCursorError(
            f"cursor {token!r} is a byte offset from an earlier release;"
            f" restart from 'begin'"
        )
    if not _version(payload, 2):
        raise BadCursorError(f"unsupported cursor version in {token!r}")
    event_id = payload.get("e")
    if not _nonneg_int(event_id):
        raise BadCursorError(f"malformed cursor id in {token!r}")
    return event_id


def encode_queue_cursor(created: float, job_id: str) -> str:
    """Pack a queue page's last row, ``(created, id)``, into a token.

    The next page is the rows after that key in the page order, so a
    row that leaves a ``state=`` filter between pages shifts nothing.
    Queue pages and event feeds share one continuation idiom (an opaque
    ``cursor`` string), but their tokens are distinct shapes -- a queue
    token on the event feed (or vice versa) gets ``bad_cursor``.
    """
    payload = json.dumps({"v": 2, "c": created, "i": job_id},
                         separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("ascii")) \
        .decode("ascii").rstrip("=")


def decode_queue_cursor(token: str) -> tuple[float, str]:
    """Unpack a queue-page token to ``(created, id)``.

    Raises :class:`BadCursorError` on junk and on version 1 (a row
    offset from an earlier release).
    """
    try:
        padded = token + "=" * (-len(token) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeEncodeError):
        raise BadCursorError(
            f"undecodable queue cursor token: {token!r}"
        ) from None
    if _version(payload, 1):
        raise BadCursorError(
            f"queue cursor {token!r} is a row offset from an earlier"
            f" release; restart from the first page"
        )
    if not _version(payload, 2):
        raise BadCursorError(f"unsupported queue cursor version in {token!r}")
    created, job_id = payload.get("c"), payload.get("i")
    if type(created) not in (int, float) or not math.isfinite(created) \
            or not isinstance(job_id, str) or not job_id:
        raise BadCursorError(f"malformed queue cursor key in {token!r}")
    return float(created), job_id


def event_state(record: dict) -> str:
    """The job state a raw audit record implies (may be empty)."""
    state = record.get("state")
    if isinstance(state, str) and state:
        return state
    return IMPLIED_STATE.get(record.get("event", ""), "")


def makes_claimable(record: dict) -> bool:
    """Whether a raw audit record put a job where a pool can claim it:
    a ``submitted`` that was neither BLOCKED nor served from cache, a
    ``released`` DAG child or a ``requeued`` failed attempt."""
    return record.get("event") in ("submitted", "released", "requeued") \
        and event_state(record) == JobState.PENDING.value


@dataclasses.dataclass(frozen=True)
class EventFilter:
    """Server-side narrowing of a feed; ``None`` means "any".

    Matching is against the :class:`EventView` projection: ``kinds``
    are audit event names, ``states`` are implied job states -- so
    ``states={"done"}`` matches a ``done`` event whether or not the
    record spells its state out, regardless of which extras it
    carries.
    """

    job_ids: frozenset | None = None
    kinds: frozenset | None = None
    states: frozenset | None = None

    @classmethod
    def build(cls, job_ids=None, kinds=None, states=None) -> "EventFilter":
        def norm(values, fold=str):
            if values is None:
                return None
            values = frozenset(fold(v) for v in values)
            return values or None
        # Job states are canonically uppercase (``JobState.DONE.value``
        # == ``"DONE"``); accept ``state=done`` from the wire anyway.
        return cls(job_ids=norm(job_ids), kinds=norm(kinds),
                   states=norm(states, fold=lambda v: str(v).upper()))

    @property
    def empty(self) -> bool:
        return (self.job_ids is None and self.kinds is None
                and self.states is None)

    def matches(self, record: dict) -> bool:
        """Whether a raw audit record would pass as a view."""
        if self.job_ids is not None \
                and record.get("job", "") not in self.job_ids:
            return False
        if self.kinds is not None \
                and record.get("event", "") not in self.kinds:
            return False
        if self.states is not None \
                and event_state(record) not in self.states:
            return False
        return True


class EventBroker:
    """Tail over the audit log, with blocking waits.

    One broker per coordinator process, shared by every subscriber; it
    holds no per-subscriber state (the cursor each client carries *is*
    the subscription), so subscribers cost nothing between reads and a
    coordinator restart loses nothing.
    """

    def __init__(self, store, poll_interval: float = 0.2) -> None:
        self.store = store
        self.poll_interval = poll_interval
        self._cond = threading.Condition()
        self._version = 0
        store.set_event_hook(self.wake)

    def wake(self, record: dict | None = None) -> None:
        """The store's event hook: release every blocked :meth:`poll`."""
        with self._cond:
            self._version += 1
            self._cond.notify_all()

    # -- cursor resolution ----------------------------------------------

    def begin_offset(self, job_ids=None) -> int:
        """The cursor before the first event (0) -- or, for a feed
        filtered to ``job_ids``, where those jobs' histories start.

        A job's row records the log position it was submitted at
        (:meth:`JobStore.events_start`), so a watch of named jobs reads
        what the filtered replay would deliver without replaying what
        was logged before them.  An id the store does not hold means
        the full replay.
        """
        if job_ids is not None:
            held, start = self.store.events_start(job_ids)
            if held == len(job_ids):
                return start
        return 0

    def resolve(self, token: str | None, job_ids=None) -> int:
        """The event id for a wire token (sentinels included); ``job_ids``
        is the feed's job filter, which only ``begin`` looks at."""
        if token is None or token == "" or token == BEGIN:
            return self.begin_offset(job_ids)
        if token == NOW:
            return self.store.events_end()
        return decode_cursor(token)

    # -- reads -----------------------------------------------------------

    def read(self, offset: int, limit: int = 500,
             filter: EventFilter | None = None,
             ) -> tuple[list[EventView], int]:
        """One non-blocking read after ``offset``, in id order.

        Returns ``(views, next_offset)``: the *matching* events among
        the next ``limit`` raw ones, each carrying the cursor token that
        resumes just past it, so one call is bounded regardless of log
        size.  A fully-filtered-out window returns no views but still
        advances the offset (callers loop until it stops moving).
        """
        batch, next_offset = self.store.read_events(offset, limit=limit)
        # A filtered-out event is consumed (the cursor moves past it)
        # but no view or token is built for it.
        views = [
            EventView(
                cursor=encode_cursor(event_id),
                t=record.get("t", 0.0),
                job_id=record.get("job", ""),
                kind=record.get("event", ""),
                state=event_state(record),
                data={k: v for k, v in record.items()
                      if k not in ("t", "job", "event")},
            )
            for record, event_id in batch
            if filter is None or filter.matches(record)
        ]
        return views, next_offset

    def poll(self, token: str | None, limit: int = 500,
             filter: EventFilter | None = None, timeout: float = 0.0,
             ) -> tuple[list[EventView], str, bool]:
        """Long-poll: block until a matching event arrives or timeout.

        Returns ``(views, next_token, timed_out)``.  ``timeout=0``
        makes it a plain read.  The wait wakes instantly on same-process
        events (the store's event hook) and re-checks every
        ``poll_interval`` seconds for events committed by other
        processes sharing the workdir.
        """
        offset = self.resolve(
            token, filter.job_ids if filter is not None else None)
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._cond:
                version = self._version
            before = offset
            views, offset = self.read(offset, limit=limit, filter=filter)
            if views:
                return views, encode_cursor(offset), False
            if offset != before:
                continue  # scanned a filtered-out window; keep scanning
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return [], encode_cursor(offset), True
            with self._cond:
                # An event that landed after the version snapshot (and
                # so may postdate the read) skips the wait entirely.
                if self._version == version:
                    self._cond.wait(min(remaining, self.poll_interval))
