"""Resumable event feed over the per-shard JSONL audit logs.

Every state transition the service commits is already durably recorded
in each shard's ``events.jsonl`` (see :meth:`JobStore._event`); this
module exposes those logs as one merged, resumable stream so clients
can *watch* jobs instead of polling them -- the O(clients x poll-rate)
status traffic the admission controller otherwise has to throttle
collapses to O(transitions).

The pieces:

* **Cursors** -- a cursor is one logical byte offset per shard, encoded
  as an opaque base64 token (:func:`encode_cursor` /
  :func:`decode_cursor`).  Offsets are stable across coordinator
  restarts *and* log compactions (each shard's ``events.base`` sidecar
  folds discarded bytes into the offset arithmetic), which is what makes
  ``Last-Event-ID`` resume exactly-once.  The sentinels ``begin`` and
  ``now`` stand for "everything the log still holds" and "only what
  happens from here on"; under a job-id filter ``begin`` is where the
  earliest of those jobs was submitted, so waiting on a job never
  replays the log that precedes it.

* **Filters** -- :class:`EventFilter` narrows a feed server-side by job
  id, audit event name (``kind``), and implied job state; filtered-out
  events still advance the cursor, so a narrow watch over a busy queue
  stays cheap for the client without ever skipping a match (and for
  the server: the filter reads raw records, views and cursor tokens are
  built for matches only).

* **:class:`EventBroker`** -- the coordinator-side fan-out.  It tails
  every shard's log with cursor reads, k-way merges them into one
  stream (per-shard file order is preserved even when clock timestamps
  invert under write contention -- file order is the authoritative
  order within a shard), and wakes blocked long-poll/SSE subscribers
  from the store's append hook, falling back to a short re-check
  interval for appends made by *other* processes sharing the workdir.

No broker process, no message queue: the JSONL logs are the bus, the
cursor is the subscription state, and the client holds it.  This is the
decoupled pub/sub shape of Balsam's ``MessageInterface`` fan-out with
the durable log standing in for the AMQP broker.
"""

from __future__ import annotations

import base64
import binascii
import collections
import dataclasses
import json
import sqlite3
import threading
import time

from ..errors import BadCursorError
from .jobs import JobState
from .views import EventView

#: Cursor sentinels accepted wherever a token is: the oldest offset the
#: logs still hold, and the offset just past everything already logged.
BEGIN = "begin"
NOW = "now"

#: Job state implied by an audit event whose record carries no explicit
#: ``state`` field.  Events absent here (``stream_started``, custom
#: ``log_event`` records, ...) imply no state at all.
IMPLIED_STATE = {
    "claimed": JobState.RUNNING.value,
    "launched": JobState.RUNNING.value,
    "released": JobState.PENDING.value,
    "cancelled": JobState.CANCELLED.value,
    "done": JobState.DONE.value,
    "failed": JobState.FAILED.value,
    "requeued": JobState.PENDING.value,
}


def encode_cursor(offsets) -> str:
    """Pack per-shard logical offsets into an opaque token."""
    payload = json.dumps({"v": 1, "o": [int(o) for o in offsets]},
                         separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("ascii")) \
        .decode("ascii").rstrip("=")


def decode_cursor(token: str, nshards: int) -> list[int]:
    """Unpack a cursor token; reject anything that cannot be one.

    Raises :class:`BadCursorError` on undecodable tokens, unknown
    versions, negative offsets, and tokens minted against a different
    shard count (offsets are per-shard, so they do not transfer).
    """
    try:
        padded = token + "=" * (-len(token) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeEncodeError):
        raise BadCursorError(f"undecodable cursor token: {token!r}") from None
    if not isinstance(payload, dict) or payload.get("v") != 1:
        raise BadCursorError(f"unsupported cursor version in {token!r}")
    offsets = payload.get("o")
    if (not isinstance(offsets, list)
            or not all(isinstance(o, int) and o >= 0 for o in offsets)):
        raise BadCursorError(f"malformed cursor offsets in {token!r}")
    if len(offsets) != nshards:
        raise BadCursorError(
            f"cursor spans {len(offsets)} shard(s), this feed has {nshards}"
        )
    return offsets


def encode_queue_cursor(offset: int) -> str:
    """Pack a queue-page continuation offset into an opaque token.

    Queue pages and event feeds share one continuation idiom (an opaque
    ``cursor`` string), but their tokens are distinct shapes -- a queue
    token on the event feed (or vice versa) gets ``bad_cursor``.
    """
    payload = json.dumps({"v": 1, "q": int(offset)}, separators=(",", ":"))
    return base64.urlsafe_b64encode(payload.encode("ascii")) \
        .decode("ascii").rstrip("=")


def decode_queue_cursor(token: str) -> int:
    """Unpack a queue-page token; :class:`BadCursorError` on junk."""
    try:
        padded = token + "=" * (-len(token) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeEncodeError):
        raise BadCursorError(
            f"undecodable queue cursor token: {token!r}"
        ) from None
    if not isinstance(payload, dict) or payload.get("v") != 1:
        raise BadCursorError(f"unsupported queue cursor version in {token!r}")
    offset = payload.get("q")
    if not isinstance(offset, int) or offset < 0:
        raise BadCursorError(f"malformed queue cursor offset in {token!r}")
    return offset


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
    """Shard-merging tail over the audit logs, with blocking waits.

    One broker per coordinator process, shared by every subscriber; it
    holds no per-subscriber state (the cursor each client carries *is*
    the subscription), so subscribers cost nothing between reads and a
    coordinator restart loses nothing.
    """

    def __init__(self, store, poll_interval: float = 0.2) -> None:
        # Shard order is the feed's shard numbering: cursor tokens
        # encode one offset per shard, so it must be stable across
        # restarts (it is -- shard workdirs are sorted on open).
        self.stores = list(store.shards)
        self.nshards = len(self.stores)
        self.poll_interval = poll_interval
        self._cond = threading.Condition()
        self._version = 0
        store.set_event_hook(self.wake)

    def wake(self, record: dict | None = None) -> None:
        """The stores' append hook: release every blocked :meth:`poll`."""
        with self._cond:
            self._version += 1
            self._cond.notify_all()

    # -- cursor resolution ----------------------------------------------

    def begin_offsets(self, job_ids=None) -> list[int]:
        """The oldest offsets the logs hold -- or, for a feed filtered
        to ``job_ids``, the offsets those jobs' histories start at.

        A job's row records the log position it was submitted at
        (:meth:`JobStore.events_start`), so a watch of named jobs reads
        what the filtered replay would deliver without replaying what
        was logged before them.  An id no shard holds, or a shard that
        cannot be asked, means the full replay.
        """
        if job_ids is not None:
            try:
                starts = [s.events_start(job_ids) for s in self.stores]
            except sqlite3.OperationalError:
                starts = []  # a wedged shard: replay rather than fail
            if sum(held for held, _ in starts) == len(job_ids):
                return [offset for _, offset in starts]
        return [s.events_base() for s in self.stores]

    def end_offsets(self) -> list[int]:
        return [s.events_end() for s in self.stores]

    def resolve(self, token: str | None, job_ids=None) -> list[int]:
        """Offsets for a wire token (sentinels included); ``job_ids`` is
        the feed's job filter, which only ``begin`` looks at."""
        if token is None or token == "" or token == BEGIN:
            return self.begin_offsets(job_ids)
        if token == NOW:
            return self.end_offsets()
        return decode_cursor(token, self.nshards)

    # -- reads -----------------------------------------------------------

    def read(self, offsets, limit: int = 500,
             filter: EventFilter | None = None,
             ) -> tuple[list[EventView], list[int]]:
        """One non-blocking merged read from ``offsets``.

        Returns ``(views, next_offsets)``: up to ``limit`` *matching*
        events in merged order, each carrying the cursor token that
        resumes just past it.  At most ``limit`` raw events are read
        per shard, so one call is bounded regardless of log size; a
        fully-filtered-out window returns no views but still advances
        the offsets (callers loop until offsets stop moving).

        The merge pops whichever shard's oldest unconsumed event has the
        smallest timestamp, but only ever consumes each shard's events
        in file order -- so per-shard order (the authoritative one) is
        never violated by slightly inverted wall clocks, and cutting at
        ``limit`` always leaves each shard at a clean prefix boundary.
        The merge also stops where a shard's full window runs dry: its
        next event is still on disk and may sort before the other
        shards' heads (only a filtered read gets there; an unfiltered
        one has its ``limit`` views by then).
        """
        offsets = list(offsets)
        queues = []
        for i, store in enumerate(self.stores):
            batch, _end = store.read_events(offsets[i], limit=limit)
            queues.append(collections.deque(batch))
        full = [len(queue) == limit for queue in queues]
        views: list[EventView] = []
        while len(views) < limit:
            pick = -1
            best = None
            for i, queue in enumerate(queues):
                if not queue:
                    continue
                head_t = queue[0][0].get("t", 0.0)
                if best is None or head_t < best:
                    best = head_t
                    pick = i
            if pick < 0:
                break
            record, end_offset = queues[pick].popleft()
            offsets[pick] = end_offset
            # A filtered-out event is consumed (the cursor moves past
            # it) but no view or token is built for it.
            if filter is None or filter.matches(record):
                views.append(EventView(
                    cursor=encode_cursor(offsets),
                    t=record.get("t", 0.0),
                    job_id=record.get("job", ""),
                    kind=record.get("event", ""),
                    state=event_state(record),
                    shard=pick,
                    data={k: v for k, v in record.items()
                          if k not in ("t", "job", "event")},
                ))
            if full[pick] and not queues[pick]:
                break
        return views, offsets

    def poll(self, token: str | None, limit: int = 500,
             filter: EventFilter | None = None, timeout: float = 0.0,
             ) -> tuple[list[EventView], str, bool]:
        """Long-poll: block until a matching event arrives or timeout.

        Returns ``(views, next_token, timed_out)``.  ``timeout=0``
        makes it a plain read.  The wait wakes instantly on same-process
        appends (the store's append hook) and re-checks every
        ``poll_interval`` seconds for appends by other processes
        sharing the workdir.
        """
        offsets = self.resolve(
            token, filter.job_ids if filter is not None else None)
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._cond:
                version = self._version
            before = list(offsets)
            views, offsets = self.read(offsets, limit=limit, filter=filter)
            if views:
                return views, encode_cursor(offsets), False
            if offsets != before:
                continue  # scanned a filtered-out window; keep scanning
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return [], encode_cursor(offsets), True
            with self._cond:
                # An append that landed after the version snapshot (and
                # so may postdate the read) skips the wait entirely.
                if self._version == version:
                    self._cond.wait(min(remaining, self.poll_interval))
