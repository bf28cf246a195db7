"""Persistent job store: one SQLite file holding the queue and its audit log.

The store is the service's single source of truth.  SQLite gives the
multiprocess worker pool atomic job claims (``BEGIN IMMEDIATE`` write
transactions serialize claimers across processes), and the ``events``
table records every transition so tests and operators can audit
exactly what ran -- e.g. "how many jobs entered RUNNING during this
resubmission?" is one ``SELECT COUNT(*)``.  A transition INSERTs its
events inside the transaction that changes the rows, so a row and its
event commit together or not at all, and an event's ``id`` is its
position in commit order (the feed's cursor, :mod:`.events`).  Nothing
deletes from the log: it starts at cursor 0 and only grows.

A workdir has one layout, :data:`_SCHEMA`'s, and nothing migrates to it:
a store creates it on a database with no ``jobs`` table and refuses the
rest (a ``shards/NN/`` tree, no ``events`` table, other ``jobs`` columns)
before writing a byte, so an earlier release's workdir is drained by it.

Connections are opened lazily *per process and per thread*: a
:class:`JobStore` handle may be created in a supervisor and used after
``fork`` in a worker child, or shared by the threads of an HTTP
front-end; each (process, thread) pair gets its own connection, since
SQLite connections are neither fork- nor thread-shareable.

A store SQLite cannot reach (a hung writer holding the file lock past
the busy timeout, a disk error) raises
:class:`~repro.errors.StoreUnavailableError` (503) from every statement,
so no caller ever mistakes a wedged store for an empty queue.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import sqlite3
import threading
import time

from ..errors import (
    BadCursorError,
    ConfigError,
    LeaseConflictError,
    LeaseExpiredError,
    StoreUnavailableError,
    UnknownJobError,
)
from .jobs import COLUMNS, Job, JobState, Lease, new_lease_id

#: ``events_from`` is the highest event id when the row was inserted;
#: only the feed reads it, so it is not a Job field.
_SCHEMA = """
CREATE TABLE jobs (
    id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    key TEXT NOT NULL,
    state TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    max_retries INTEGER NOT NULL,
    timeout REAL NOT NULL,
    not_before REAL NOT NULL,
    error TEXT NOT NULL,
    result_key TEXT NOT NULL,
    cached INTEGER NOT NULL,
    worker TEXT NOT NULL,
    lease_id TEXT NOT NULL DEFAULT '',
    lease_expires REAL NOT NULL DEFAULT 0,
    created REAL NOT NULL,
    updated REAL NOT NULL,
    depends_on TEXT NOT NULL DEFAULT '[]',
    events_from INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE leases (
    id TEXT PRIMARY KEY,
    worker TEXT NOT NULL,
    created REAL NOT NULL,
    expires REAL NOT NULL
);
CREATE TABLE deps (
    child TEXT NOT NULL,
    parent TEXT NOT NULL,
    PRIMARY KEY (child, parent)
);
CREATE TABLE events (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    t REAL NOT NULL,
    job TEXT NOT NULL,
    event TEXT NOT NULL,
    body TEXT NOT NULL
);
CREATE INDEX jobs_state ON jobs (state, not_before, created);
CREATE INDEX jobs_key ON jobs (key);
CREATE INDEX deps_parent ON deps (parent)
"""


def _layout(conn) -> tuple[frozenset, bool]:
    """``({jobs column names}, whether an events table exists)``."""
    tables = {name for name, in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}
    return (frozenset(row[1] for row in conn.execute(
        "PRAGMA table_info(jobs)")), "events" in tables)


#: The layout this release serves, read off :data:`_SCHEMA` itself.
with contextlib.closing(sqlite3.connect(":memory:")) as _conn:
    _LAYOUT = _layout(_conn.executescript(_SCHEMA))


_COLS = ", ".join(COLUMNS)
_PLACEHOLDERS = ", ".join("?" for _ in COLUMNS)

_INSERT_EVENT = "INSERT INTO events (t, job, event, body) VALUES (?, ?, ?, ?)"
_SELECT_EVENTS = "SELECT id, t, job, event, body FROM events"
#: The highest event id ever allocated (AUTOINCREMENT never reuses one).
_LAST_ID = ("SELECT COALESCE((SELECT seq FROM sqlite_sequence"
            " WHERE name = 'events'), 0)")


def _guarded(fn, *args, **kwargs):
    """``fn(...)``, with a SQLite operational failure re-raised as the
    typed 503 -- the one place a wedged store is told apart from an
    empty one."""
    try:
        return fn(*args, **kwargs)
    except sqlite3.OperationalError as exc:
        raise StoreUnavailableError(
            f"job store is unavailable: {exc}") from None


def _event_row(record: dict) -> tuple:
    """An audit record as ``events`` columns: the extras (``pid``
    included) travel as one JSON ``body``."""
    body = {k: v for k, v in record.items()
            if k not in ("t", "job", "event")}
    return (record["t"], record["job"], record["event"],
            json.dumps(body, sort_keys=True))


def _records(rows) -> list[tuple[dict, int]]:
    """``(record, id)`` for ``events`` rows read by ``_SELECT_EVENTS``."""
    return [({"t": t, "job": job, "event": event, **json.loads(body)}, id_)
            for id_, t, job, event, body in rows]


def _id_chunks(job_ids):
    """``(ids, "?, ?, ...")`` per slice of at most 500 ids: SQLite caps
    the bound variables of one statement."""
    ids = list(job_ids)
    for i in range(0, len(ids), 500):
        chunk = ids[i:i + 500]
        yield chunk, ", ".join("?" * len(chunk))


class _Connection(sqlite3.Connection):
    """A connection whose every statement goes through :func:`_guarded`."""

    def execute(self, *args):
        return _guarded(super().execute, *args)


class _Transition:
    """The audit records one write INSERTs on its connection -- a
    transaction's, announced by :meth:`JobStore._transaction` after
    COMMIT, or one autocommit record's (:meth:`JobStore._event`)."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.records: list[dict] = []

    def log(self, job_id: str, event: str, **extra) -> None:
        record = {"t": time.time(), "pid": os.getpid(), "job": job_id,
                  "event": event, **extra}
        self.conn.execute(_INSERT_EVENT, _event_row(record))
        self.records.append(record)


class JobStore:
    """Queue of :class:`~repro.service.jobs.Job` rows under a workdir."""

    def __init__(self, workdir, busy_timeout: float = 30.0) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.db_path = os.path.join(self.workdir, "jobs.sqlite")
        self.busy_timeout = busy_timeout
        self._local = threading.local()
        #: Callback fired (outside any transaction) after a job commits a
        #: terminal transition.  The DAG resolver hangs off this to
        #: release or cancel dependent jobs event-driven; see
        #: :meth:`set_terminal_hook`.
        self.on_terminal = None
        #: Callback fired after every committed audit event; the event
        #: broker hangs off this to wake long-poll subscribers
        #: without busy-polling the log.  See :meth:`set_event_hook`.
        self.on_event = None
        self._open()

    def _open(self) -> None:
        """Create the schema or refuse the workdir; one ``BEGIN IMMEDIATE``
        serializes processes opening one fresh workdir at once."""
        if glob.glob(os.path.join(glob.escape(self.workdir), "shards", "*",
                                  "jobs.sqlite")):
            why = "a sharded queue in shards/NN/"
        else:
            with self._transaction() as tx:
                columns, events = _layout(tx.conn)
                if not columns:
                    for statement in _SCHEMA.split(";"):
                        tx.conn.execute(statement)
                    return
            if (columns, events) == _LAYOUT:
                return
            why = ("no events table" if not events else "jobs columns "
                   + ", ".join(sorted(columns ^ _LAYOUT[0])))
        raise ConfigError(
            f"{self.workdir} is not in this release's layout ({why}); drain"
            f" it with the release that wrote it, or start a new workdir")

    # -- connection management -------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", -1) != pid:
            # A connection inherited across fork must not be reused (the
            # child would share the parent's file locks), and sqlite3
            # connections refuse cross-thread use; open fresh per
            # (process, thread).
            conn = _guarded(sqlite3.connect, self.db_path,
                            timeout=self.busy_timeout, factory=_Connection)
            conn.isolation_level = None  # explicit transactions only
            conn.execute("PRAGMA busy_timeout = %d"
                         % max(0, int(self.busy_timeout * 1000)))
            self._local.conn = conn
            self._local.pid = pid
        return conn

    @contextlib.contextmanager
    def _transaction(self, begin: str = "BEGIN IMMEDIATE"):
        """``BEGIN ... COMMIT`` around the block, which gets a
        :class:`_Transition`; ROLLBACK if it raises.  The events it
        logged reach the event hook after COMMIT, in id order."""
        conn = self._connection()
        tx = _Transition(conn)
        conn.execute(begin)
        try:
            yield tx
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        self._announce(tx.records)

    def _announce(self, records: list[dict]) -> None:
        callback = self.on_event
        if callback is None:
            return
        for record in records:
            try:
                callback(record)
            except Exception:  # noqa: BLE001 -- wake-ups are best-effort
                pass

    def _event(self, job_id: str, event: str, **extra) -> None:
        """Log a record that goes with no row change, as one autocommit
        INSERT (a transition logs through its own :class:`_Transition`)."""
        tx = _Transition(self._connection())
        tx.log(job_id, event, **extra)
        self._announce(tx.records)

    def events(self) -> list[dict]:
        """All logged events, oldest first (empty if none yet)."""
        rows = self._connection().execute(
            f"{_SELECT_EVENTS} ORDER BY id").fetchall()
        return [record for record, _ in _records(rows)]

    # -- event cursors (resumable audit-log reads) -----------------------
    #
    # A cursor is an event id: "every event after this one".  SQLite
    # serialises write transactions and allocates ids inside them, so id
    # order is commit order and a reader never passes an id that commits
    # later.  Nothing deletes from the log and ids are never reused, so
    # the log starts at cursor 0 and a cursor held across a restart
    # still means the same position in it.

    def set_event_hook(self, callback) -> None:
        """Install ``callback(record)``, fired after every logged event.

        Runs after the event's COMMIT (outside any transaction) so a
        broker may immediately read the log from it.  Exceptions are
        swallowed: logging an audit event must never fail because a
        subscriber misbehaved.
        """
        self.on_event = callback

    def events_end(self) -> int:
        """The cursor past the newest event: the highest id allocated."""
        return self._connection().execute(_LAST_ID).fetchone()[0]

    def events_start(self, job_ids) -> tuple[int, int]:
        """Where a feed filtered to ``job_ids`` may start on this log.

        Returns ``(held, cursor)``: how many of the ids are rows here,
        and the earliest submit position recorded on them
        (:meth:`add_batch`), 0 being the start of the log.
        """
        conn = self._connection()
        held, first = 0, None
        for chunk, marks in _id_chunks(job_ids):
            count, least = conn.execute(
                "SELECT COUNT(*), MIN(events_from) FROM jobs"
                f" WHERE id IN ({marks})", chunk,
            ).fetchone()
            if count:
                held += count
                first = least if first is None else min(first, least)
        return held, first or 0

    def read_events(self, cursor: int, limit: int | None = None,
                    ) -> tuple[list[tuple[dict, int]], int]:
        """The events after ``cursor``, oldest first, with their ids.

        Returns ``(batch, next_cursor)`` where ``batch`` pairs each
        record with its id -- resuming from that id never re-reads the
        record, so a cursor-driven reader sees every event exactly once.

        Raises :class:`BadCursorError` when ``cursor`` lies beyond the
        end of the log.
        """
        conn = self._connection()
        rows = conn.execute(
            f"{_SELECT_EVENTS} WHERE id > ? ORDER BY id LIMIT ?",
            (cursor, -1 if limit is None else limit)).fetchall()
        if not rows:
            # Only a cursor nothing follows can lie past the end; the
            # end only grows, so checking it after the read is safe.
            end = conn.execute(_LAST_ID).fetchone()[0]
            if cursor > end:
                raise BadCursorError(
                    f"cursor {cursor} is beyond the end of the log ({end})"
                )
        # Decoded after the read, so a writer's COMMIT (which waits for
        # readers to let go) never waits on the JSON parsing.
        batch = _records(rows)
        return batch, batch[-1][1] if batch else cursor

    # -- DAG hook --------------------------------------------------------

    def set_terminal_hook(self, callback) -> None:
        """Install ``callback(job)``, fired after terminal transitions.

        The callback runs after the transition's COMMIT and outside any
        transaction, so it may freely read and write the store (the DAG
        resolver releases children from it).  A callback failure is
        logged to the audit log and swallowed: completing a job must
        never fail because releasing its children did -- the recovery
        sweep reconciles missed releases later.
        """
        self.on_terminal = callback

    def _fire_terminal(self, job: Job) -> None:
        callback = self.on_terminal
        if callback is None or not job.state.terminal:
            return
        try:
            callback(job)
        except Exception as exc:  # noqa: BLE001 -- see set_terminal_hook
            # A wedged store fails the hook and this record alike.
            with contextlib.suppress(StoreUnavailableError):
                self._event(job.id, "dag_hook_error",
                            error=f"{type(exc).__name__}: {exc}"[:200])

    @staticmethod
    def _insert_deps(conn, job: Job) -> None:
        """Record the job's parent edges child-side, in the caller's txn."""
        for parent in job.depends_on:
            conn.execute(
                "INSERT OR IGNORE INTO deps (child, parent) VALUES (?, ?)",
                (job.id, parent),
            )

    # -- writes ----------------------------------------------------------

    def add(self, job: Job, dedup: bool = False) -> Job:
        """The one-item spelling of :meth:`add_batch`.

        Returns the job that holds the key afterwards: ``job`` itself,
        or -- with ``dedup`` -- the active twin found in its place.
        """
        added, existing = self.add_batch([(job, dedup)])[0]
        return added or existing

    def add_batch(
        self, items: list[tuple[Job, bool]]
    ) -> list[tuple[Job | None, Job | None]]:
        """Insert many jobs in ONE transaction, preserving submit order.

        This is the only statement that inserts a job.  ``items`` pairs
        each job with a ``dedup`` flag: with it the item is inserted
        only when no active (BLOCKED/PENDING/RUNNING) job holds its
        content key -- ``(None, existing)`` comes back for a twin --
        without it unconditionally; an inserted job is ``(job, None)``.
        The existence check and the insert share one ``BEGIN
        IMMEDIATE``, so two submitters racing on one key (threads of an
        HTTP front-end, or separate processes) can never both queue a
        job for it; and because every per-item SELECT sees the earlier
        items' INSERTs, in-batch duplicates dedup against each other
        precisely as sequential single submits would -- the batch is
        observationally equivalent to N ordered calls, just one fsync
        instead of N.

        Atomic: either every insert of the batch and its ``submitted``
        events commit or none do.  Events are logged in submit order (no
        batch marker on the wire or in the log).
        """
        results: list[tuple[Job | None, Job | None]] = []
        with self._transaction() as tx:
            conn = tx.conn
            # Every event of these jobs gets a later id.
            events_from = conn.execute(_LAST_ID).fetchone()[0]
            for job, dedup in items:
                if dedup:
                    row = conn.execute(
                        f"SELECT {_COLS} FROM jobs WHERE key = ?"
                        " AND state IN (?, ?, ?) ORDER BY created LIMIT 1",
                        (job.key, JobState.BLOCKED.value,
                         JobState.PENDING.value, JobState.RUNNING.value),
                    ).fetchone()
                    if row is not None:
                        results.append((None, Job.from_row(row)))
                        continue
                conn.execute(
                    f"INSERT INTO jobs ({_COLS}, events_from)"
                    f" VALUES ({_PLACEHOLDERS}, ?)",
                    job.to_row() + (events_from,),
                )
                self._insert_deps(conn, job)
                tx.log(job.id, "submitted", kind=job.kind, key=job.key,
                       state=job.state.value, cached=job.cached)
                results.append((job, None))
        return results

    def cancel(self, job_id: str) -> bool:
        """Cancel a BLOCKED/PENDING job.

        Returns False when the job already left the queue (RUNNING or
        terminal) -- cancelling an already-terminal job is a no-op, not
        an error, so racing cancellers (a user and the DAG failure
        propagation) are both safe.
        """
        hit = self._flip(job_id, (JobState.BLOCKED, JobState.PENDING),
                         JobState.CANCELLED, "cancelled")
        if hit:
            self._fire_terminal(self.get(job_id))
        return hit

    def _flip(self, job_id: str, sources, target: JobState, event: str,
              **extra) -> bool:
        """Move ``job_id`` from one of ``sources`` to ``target`` and log
        ``event``; False when it is in none of them.  The guarded UPDATE
        makes the move exactly-once among racing callers."""
        with self._transaction() as tx:
            hit = tx.conn.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE id = ?"
                f" AND state IN ({', '.join('?' * len(sources))})",
                (target.value, time.time(), job_id,
                 *(state.value for state in sources)),
            ).rowcount > 0
            if hit:
                tx.log(job_id, event, **extra)
        return hit

    # -- DAG edges (dependency-aware release) ----------------------------

    def children_of(self, parent_id: str) -> list[Job]:
        """BLOCKED jobs that declare ``parent_id`` as a parent (edges
        are stored child-side, in the ``deps`` table)."""
        cols = ", ".join(f"jobs.{c}" for c in COLUMNS)
        rows = self._connection().execute(
            f"SELECT {cols} FROM jobs JOIN deps ON deps.child = jobs.id"
            " WHERE deps.parent = ? AND jobs.state = ?"
            " ORDER BY jobs.created, jobs.id",
            (parent_id, JobState.BLOCKED.value),
        ).fetchall()
        return [Job.from_row(r) for r in rows]

    def release(self, job_id: str) -> bool:
        """Move a BLOCKED job to PENDING (all parents DONE).

        The guarded UPDATE makes release exactly-once: two resolvers
        racing on the same child (concurrent parent completions, or a
        recovery sweep racing live traffic) see exactly one winning
        rowcount, and only the winner logs the ``released`` event.
        """
        return self._flip(job_id, (JobState.BLOCKED,), JobState.PENDING,
                          "released")

    def cancel_from_parent(self, job_id: str, parent_id: str) -> bool:
        """Cancel a BLOCKED descendant of a FAILED/CANCELLED parent.

        Exactly-once by the same guarded-UPDATE argument as
        :meth:`release`; only the winner logs the single
        ``parent_failed`` audit event.  Unlike :meth:`cancel` this does
        *not* fire the terminal hook -- the resolver that calls it owns
        the whole descendant closure and would only re-enter itself.
        """
        return self._flip(job_id, (JobState.BLOCKED,), JobState.CANCELLED,
                          "parent_failed", parent=parent_id,
                          state=JobState.CANCELLED.value)

    # -- leases (worker pools) -------------------------------------------

    def claim_batch(self, worker: str, limit: int = 1, ttl: float = 60.0,
                    now: float | None = None, cached=None,
                    ) -> tuple[Lease | None, list[Job]]:
        """Atomically lease up to ``limit`` ready PENDING jobs to ``worker``.

        The batch and its lease are created in one transaction, so two
        pools polling one coordinator can never lease the same job.
        Returns ``(None, [])`` when no job ships -- no empty lease is
        minted.  Expired leases are swept first, so a dead worker's
        jobs become claimable by the very call that replaces it.

        ``cached(job) -> bool`` makes the claim a launch (the store
        never imports the result cache; ``Service.claim_jobs`` passes
        it).  In the same transaction a job whose result ``cached``
        reports is completed DONE -- logged ``claimed`` + ``done`` with
        the record :meth:`complete_leased` writes, and not returned --
        and every other job is logged ``claimed`` + ``launched``.
        Without it every job is returned and logged ``claimed`` only.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        done: list[Job] = []
        with self._transaction() as tx:
            rows = tx.conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE state = ? AND not_before <= ?"
                " ORDER BY created, id LIMIT ?",
                (JobState.PENDING.value, now, max(0, int(limit))),
            ).fetchall()
            if not rows:
                return None, []
            lease = Lease(id=new_lease_id(), worker=worker,
                          created=now, expires=now + ttl)
            jobs = []
            for row in rows:
                job = Job.from_row(row)
                job.attempts += 1
                job.worker = worker
                job.updated = now
                tx.log(job.id, "claimed", worker=worker,
                       attempt=job.attempts, lease=lease.id)
                if cached is not None and cached(job):
                    job.state = JobState.DONE
                    job.result_key = job.key
                    job.error = ""
                    tx.log(job.id, "done", state=job.state.value,
                           lease=lease.id)
                    done.append(job)
                else:
                    job.state = JobState.RUNNING
                    job.lease_id = lease.id
                    job.lease_expires = lease.expires
                    if cached is not None:
                        tx.log(job.id, "launched", worker=worker,
                               lease=lease.id)
                    jobs.append(job)
                tx.conn.execute(
                    "UPDATE jobs SET state = ?, attempts = ?, worker = ?,"
                    " result_key = ?, error = ?, lease_id = ?,"
                    " lease_expires = ?, updated = ? WHERE id = ?",
                    (job.state.value, job.attempts, worker, job.result_key,
                     job.error, job.lease_id, job.lease_expires, now,
                     job.id),
                )
            if jobs:
                tx.conn.execute(
                    "INSERT INTO leases (id, worker, created, expires)"
                    " VALUES (?, ?, ?, ?)",
                    (lease.id, lease.worker, lease.created, lease.expires),
                )
        for job in done:
            self._fire_terminal(job)
        return (lease if jobs else None), jobs

    def heartbeat_lease(self, lease_id: str, ttl: float = 60.0,
                        now: float | None = None) -> Lease:
        """Extend a live lease (and its jobs) by ``ttl`` seconds.

        Raises :class:`LeaseExpiredError` when the lease has lapsed or
        never existed -- either way the worker no longer owns its jobs.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        with self._transaction() as tx:
            row = tx.conn.execute(
                "SELECT id, worker, created, expires FROM leases"
                " WHERE id = ?", (lease_id,),
            ).fetchone()
            if row is None or row[3] <= now:
                raise LeaseExpiredError(
                    f"lease {lease_id} has expired or does not exist"
                )
            lease = Lease(id=row[0], worker=row[1], created=row[2],
                          expires=now + ttl)
            tx.conn.execute("UPDATE leases SET expires = ? WHERE id = ?",
                            (lease.expires, lease_id))
            tx.conn.execute(
                "UPDATE jobs SET lease_expires = ?, updated = ?"
                " WHERE lease_id = ? AND state = ?",
                (lease.expires, now, lease_id, JobState.RUNNING.value),
            )
        return lease

    def _leased_job(self, conn, job_id: str, lease_id: str) -> Job:
        """Fetch ``job_id`` and verify ``lease_id`` still holds it.

        Must run inside the caller's write transaction so the check and
        the subsequent state change are atomic.
        """
        row = conn.execute(
            f"SELECT {_COLS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise UnknownJobError(f"no such job: {job_id}")
        job = Job.from_row(row)
        if job.state is JobState.RUNNING and job.lease_id == lease_id:
            return job
        if job.state is JobState.RUNNING and job.lease_id:
            raise LeaseConflictError(
                f"job {job_id} is held by lease {job.lease_id},"
                f" not {lease_id}"
            )
        raise LeaseExpiredError(
            f"lease {lease_id} no longer holds job {job_id}"
            f" (state {job.state.value})"
        )

    def complete_leased(self, job_id: str, lease_id: str,
                        result_key: str,
                        now: float | None = None) -> Job:
        """Mark a leased job DONE, guarded by lease ownership.

        A worker whose lease lapsed mid-upload gets
        :class:`LeaseExpiredError` and must drop the job: the store has
        already requeued it, and accepting the late result would let one
        job complete twice.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        with self._transaction() as tx:
            job = self._leased_job(tx.conn, job_id, lease_id)
            job.state = JobState.DONE
            job.result_key = result_key
            job.error = ""
            job.lease_id = ""
            job.lease_expires = 0.0
            job.updated = now
            tx.conn.execute(
                "UPDATE jobs SET state = ?, result_key = ?, error = '',"
                " lease_id = '', lease_expires = 0, updated = ?"
                " WHERE id = ?",
                (job.state.value, result_key, now, job_id),
            )
            tx.log(job_id, "done", state=job.state.value, lease=lease_id)
        self._fire_terminal(job)
        return job

    def fail_leased(self, job_id: str, lease_id: str, error: str,
                    backoff_base: float = 0.5,
                    now: float | None = None) -> Job:
        """Record a leased attempt's failure, guarded by lease ownership.

        The bounded-retry policy lives here: within ``max_retries`` the
        job returns to PENDING with ``not_before = now + backoff_base *
        2**(attempts-1)``, otherwise it is FAILED.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        with self._transaction() as tx:
            job = self._leased_job(tx.conn, job_id, lease_id)
            if job.attempts <= job.max_retries:
                job.state = JobState.PENDING
                job.not_before = now + backoff_base * 2 ** (job.attempts - 1)
            else:
                job.state = JobState.FAILED
            job.error = error
            job.lease_id = ""
            job.lease_expires = 0.0
            job.updated = now
            tx.conn.execute(
                "UPDATE jobs SET state = ?, not_before = ?, error = ?,"
                " lease_id = '', lease_expires = 0, updated = ?"
                " WHERE id = ?",
                (job.state.value, job.not_before, error, now, job_id),
            )
            tx.log(job_id,
                   "requeued" if job.state is JobState.PENDING else "failed",
                   state=job.state.value, lease=lease_id,
                   error=error.splitlines()[-1][:200] if error else "")
        self._fire_terminal(job)
        return job

    def expire_leases(self, now: float | None = None) -> list[Job]:
        """Requeue jobs whose lease lapsed; delete the dead leases.

        The scan, the job transitions, and the lease deletions share one
        write transaction, so concurrent sweeps (every claim/heartbeat
        runs one) serialize and each orphaned job is requeued **exactly
        once** -- the second sweep finds no matching rows.  Jobs whose
        retry budget is already spent are FAILED instead of requeued.
        A RUNNING row without a lease (its ``lease_expires`` is 0) is an
        orphan by the same rule.
        """
        now = time.time() if now is None else now
        recovered = []
        with self._transaction() as tx:
            conn = tx.conn
            dead = conn.execute(
                "SELECT id FROM leases WHERE expires <= ?", (now,)
            ).fetchall()
            rows = conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE state = ?"
                " AND lease_expires <= ?",
                (JobState.RUNNING.value, now),
            ).fetchall()
            for row in rows:
                job = Job.from_row(row)
                expired_lease = job.lease_id
                message = (f"lease {job.lease_id} expired"
                           f" (worker {job.worker} presumed dead)")
                if job.attempts <= job.max_retries:
                    job.state = JobState.PENDING
                    job.not_before = now
                else:
                    job.state = JobState.FAILED
                job.error = message
                job.lease_id = ""
                job.lease_expires = 0.0
                job.updated = now
                conn.execute(
                    "UPDATE jobs SET state = ?, not_before = ?, error = ?,"
                    " lease_id = '', lease_expires = 0, updated = ?"
                    " WHERE id = ?",
                    (job.state.value, job.not_before, message, now, job.id),
                )
                tx.log(job.id, "lease_expired", lease=expired_lease,
                       worker=job.worker, state=job.state.value)
                recovered.append(job)
            if dead:
                conn.execute("DELETE FROM leases WHERE expires <= ?", (now,))
        for job in recovered:
            # Only jobs FAILED here (retry budget spent) are terminal;
            # requeued ones stay active, so their children stay BLOCKED.
            self._fire_terminal(job)
        return recovered

    def get_lease(self, lease_id: str) -> Lease | None:
        """The lease row, if it still exists (expired rows are swept)."""
        row = self._connection().execute(
            "SELECT id, worker, created, expires FROM leases WHERE id = ?",
            (lease_id,),
        ).fetchone()
        if row is None:
            return None
        return Lease(id=row[0], worker=row[1], created=row[2],
                     expires=row[3])

    def active_leases(self, now: float | None = None) -> list[Lease]:
        """Leases that have not yet lapsed, oldest first."""
        now = time.time() if now is None else now
        rows = self._connection().execute(
            "SELECT id, worker, created, expires FROM leases"
            " WHERE expires > ? ORDER BY created, id", (now,),
        ).fetchall()
        return [Lease(id=r[0], worker=r[1], created=r[2], expires=r[3])
                for r in rows]

    # -- reads -----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        row = self._connection().execute(
            f"SELECT {_COLS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise UnknownJobError(f"no such job: {job_id}")
        return Job.from_row(row)

    def states(self, job_ids) -> dict[str, JobState]:
        """The state of each of ``job_ids`` the store holds."""
        conn = self._connection()
        out: dict[str, JobState] = {}
        for chunk, marks in _id_chunks(job_ids):
            out.update((job_id, JobState(state)) for job_id, state in
                       conn.execute("SELECT id, state FROM jobs"
                                    f" WHERE id IN ({marks})", chunk))
        return out

    @staticmethod
    def _filters(state, kind, after=None) -> tuple[str, list]:
        clauses, params = [], []
        if state is not None:
            value = state.value if isinstance(state, JobState) \
                else JobState(state).value
            clauses.append("state = ?")
            params.append(value)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if after is not None:
            clauses.append("(created, id) > (?, ?)")
            params.extend(after)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, params

    def list(self, state: JobState | str | None = None,
             kind: str | None = None, limit: int | None = None,
             after: tuple[float, str] | None = None) -> list[Job]:
        """Jobs matching the filters in ``(created, id)`` order, windowed.

        ``after`` is the key of the last row already seen: the window
        starts past it (a keyset continuation).  ``limit=None`` returns
        every match; a string ``state`` is validated against
        :class:`JobState` (raising ``ValueError`` on junk, which callers
        surface as bad input).
        """
        where, params = self._filters(state, kind, after)
        sql = f"SELECT {_COLS} FROM jobs{where} ORDER BY created, id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(max(0, int(limit)))
        rows = self._connection().execute(sql, params).fetchall()
        return [Job.from_row(r) for r in rows]

    def count_matching(self, state: JobState | str | None = None,
                       kind: str | None = None) -> int:
        """How many jobs match the filters (the pre-window total)."""
        where, params = self._filters(state, kind)
        return self._connection().execute(
            f"SELECT COUNT(*) FROM jobs{where}", params
        ).fetchone()[0]

    def counts(self) -> dict[str, int]:
        """Job count per state (every state present, zero included)."""
        out = {s.value: 0 for s in JobState}
        for state, n in self._connection().execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            out[state] = n
        return out

    def outstanding(self) -> int:
        """Number of non-terminal jobs (BLOCKED and backoff included)."""
        c = self.counts()
        return sum(c[s.value] for s in JobState if not s.terminal)

    def close(self) -> None:
        """Close the calling thread's connection (others are untouched)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", -1) == os.getpid():
            conn.close()
        self._local.conn = None
