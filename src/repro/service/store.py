"""Persistent job store: an SQLite queue plus a JSONL event log.

The store is the service's single source of truth.  SQLite gives the
multiprocess worker pool atomic job claims (``BEGIN IMMEDIATE`` write
transactions serialize claimers across processes), and the sidecar
``events.jsonl`` append-only log records every transition so tests and
operators can audit exactly what ran -- e.g. "how many jobs entered
RUNNING during this resubmission?" is a one-line scan.

Connections are opened lazily *per process and per thread*: a
:class:`JobStore` handle may be created in a supervisor and used after
``fork`` in a worker child, or shared by the threads of an HTTP
front-end; each (process, thread) pair gets its own connection, since
SQLite connections are neither fork- nor thread-shareable.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

from ..errors import (
    BadCursorError,
    ChunkOffsetError,
    EventsTruncatedError,
    LeaseConflictError,
    LeaseExpiredError,
    UnknownJobError,
)
from .jobs import COLUMNS, Job, JobState, Lease, new_lease_id
from .streams import ChunkAssembler

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS jobs (
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
CREATE TABLE IF NOT EXISTS leases (
    id TEXT PRIMARY KEY,
    worker TEXT NOT NULL,
    created REAL NOT NULL,
    expires REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS deps (
    child TEXT NOT NULL,
    parent TEXT NOT NULL,
    PRIMARY KEY (child, parent)
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, not_before, created);
CREATE INDEX IF NOT EXISTS jobs_key ON jobs (key);
CREATE INDEX IF NOT EXISTS deps_parent ON deps (parent);
"""

#: Columns an older database is missing; added in place on open so a
#: workdir created by an older service keeps working under this one.
_MIGRATIONS = (
    ("lease_id", "ALTER TABLE jobs ADD COLUMN lease_id"
                 " TEXT NOT NULL DEFAULT ''"),
    ("lease_expires", "ALTER TABLE jobs ADD COLUMN lease_expires"
                      " REAL NOT NULL DEFAULT 0"),
    ("depends_on", "ALTER TABLE jobs ADD COLUMN depends_on"
                   " TEXT NOT NULL DEFAULT '[]'"),
    # The audit-log offset read just before the row was inserted: a
    # lower bound on the job's events (0 = unknown).  Only the feed
    # reads it, so it is not a Job field.
    ("events_from", "ALTER TABLE jobs ADD COLUMN events_from"
                    " INTEGER NOT NULL DEFAULT 0"),
)

_COLS = ", ".join(COLUMNS)
_PLACEHOLDERS = ", ".join("?" for _ in COLUMNS)


class _StagedUpload:
    """One in-flight chunked result upload spooled under ``staging/``.

    Holds the open spool file and the running offset/sha256 state, so a
    chunk costs one verified append -- the upload is never buffered
    whole.  Lives only in the coordinator process's memory; after a
    restart the worker's next out-of-order chunk gets ``bad_offset``
    with ``expected 0`` and the client restarts the upload.
    """

    def __init__(self, path: str, lease_id: str) -> None:
        self.path = path
        self.lease_id = lease_id
        self.fh = open(path, "wb")
        self.assembler = ChunkAssembler(self.fh)

    @property
    def bytes_received(self) -> int:
        return self.assembler.bytes_received

    def close(self) -> None:
        try:
            self.fh.close()
        except OSError:
            pass


class JobStore:
    """Queue of :class:`~repro.service.jobs.Job` rows under a workdir."""

    def __init__(self, workdir, busy_timeout: float = 30.0) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.db_path = os.path.join(self.workdir, "jobs.sqlite")
        self.events_path = os.path.join(self.workdir, "events.jsonl")
        self.events_base_path = os.path.join(self.workdir, "events.base")
        self.staging_dir = os.path.join(self.workdir, "staging")
        self.busy_timeout = busy_timeout
        self._local = threading.local()
        self._events_lock = threading.Lock()
        self._staging: dict[str, _StagedUpload] = {}
        self._staging_lock = threading.Lock()
        #: Callback fired (outside any transaction) after a job commits a
        #: terminal transition.  The DAG resolver hangs off this to
        #: release or cancel dependent jobs event-driven; see
        #: :meth:`set_terminal_hook`.
        self.on_terminal = None
        #: Callback fired after every audit-log append; the event broker
        #: hangs off this to wake long-poll/SSE subscribers without
        #: busy-polling the log.  See :meth:`set_event_hook`.
        self.on_event = None
        self._repair_events_tail()
        # Create or migrate the schema once per store; every later
        # handle, on whichever thread, only opens the file.
        conn = self._connection()
        conn.executescript(_SCHEMA)
        have = {row[1] for row in conn.execute("PRAGMA table_info(jobs)")}
        for column, ddl in _MIGRATIONS:
            if column not in have:
                conn.execute(ddl)

    # -- connection management -------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", -1) != pid:
            # A connection inherited across fork must not be reused (the
            # child would share the parent's file locks), and sqlite3
            # connections refuse cross-thread use; open fresh per
            # (process, thread).
            conn = sqlite3.connect(self.db_path, timeout=self.busy_timeout)
            conn.isolation_level = None  # explicit transactions only
            conn.execute("PRAGMA busy_timeout = %d"
                         % max(0, int(self.busy_timeout * 1000)))
            self._local.conn = conn
            self._local.pid = pid
        return conn

    def _event(self, job_id: str, event: str, **extra) -> None:
        record = {"t": time.time(), "pid": os.getpid(), "job": job_id,
                  "event": event, **extra}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._events_lock:
            with open(self.events_path, "a") as fh:
                fh.write(line)
        callback = self.on_event
        if callback is not None:
            try:
                callback(record)
            except Exception:  # noqa: BLE001 -- wake-ups are best-effort
                pass

    def log_event(self, job_id: str, event: str, **extra) -> None:
        """Append a custom record to the JSONL audit log."""
        self._event(job_id, event, **extra)

    def events(self) -> list[dict]:
        """All logged events, oldest first (empty if none yet)."""
        if not os.path.exists(self.events_path):
            return []
        with open(self.events_path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    # -- event cursors (resumable audit-log reads) -----------------------
    #
    # Every event has a stable *logical* offset: the byte position just
    # past its line, plus the bytes discarded by earlier compactions
    # (``events.base`` holds that discarded-byte count).  Offsets only
    # ever grow, so a cursor held across a coordinator restart -- or a
    # compaction -- still means the same position in the stream.

    def set_event_hook(self, callback) -> None:
        """Install ``callback(record)``, fired after every log append.

        Runs outside the events lock (and outside any transaction) so a
        broker may immediately read the log from it.  Exceptions are
        swallowed: appending an audit event must never fail because a
        subscriber misbehaved.
        """
        self.on_event = callback

    def _repair_events_tail(self) -> None:
        """Terminate a torn final line left by a SIGKILLed writer.

        A coordinator killed mid-append can leave ``events.jsonl``
        without a trailing newline; the next append would then fuse two
        records into one unparseable line.  Sealing the torn tail with a
        newline on open costs one byte and keeps every *later* event
        intact (the torn record itself is lost either way -- readers
        skip the unparseable line but still advance past it).
        """
        try:
            with self._events_lock, open(self.events_path, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
        except OSError:
            pass  # no log yet

    def events_base(self) -> int:
        """Logical offset of the first byte still present in the log."""
        try:
            with open(self.events_base_path) as fh:
                return int(fh.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def events_end(self) -> int:
        """Logical offset just past the last byte of the log."""
        try:
            size = os.path.getsize(self.events_path)
        except OSError:
            size = 0
        return self.events_base() + size

    def events_start(self, job_ids) -> tuple[int, int]:
        """Where a feed filtered to ``job_ids`` may start on this log.

        Returns ``(held, offset)``: how many of the ids are rows here,
        and the earliest submit position recorded on them
        (:meth:`add_batch`), never before the compaction base (a
        pre-migration row's 0 means "all the log holds").  A store that
        holds none answers with the end of its log: a job's events are
        only ever appended by the store holding its row.
        """
        ids = list(job_ids)
        conn = self._connection()
        held, first = 0, None
        for i in range(0, len(ids), 500):  # SQLite caps bound variables
            chunk = ids[i:i + 500]
            count, least = conn.execute(
                "SELECT COUNT(*), MIN(events_from) FROM jobs"
                f" WHERE id IN ({', '.join('?' * len(chunk))})", chunk,
            ).fetchone()
            if count:
                held += count
                first = least if first is None else min(first, least)
        if first is None:
            return 0, self.events_end()
        return held, max(self.events_base(), first)

    def read_events(self, offset: int, limit: int | None = None,
                    ) -> tuple[list[tuple[dict, int]], int]:
        """Complete events at logical ``offset`` on, with their offsets.

        Returns ``(batch, next_offset)`` where ``batch`` pairs each
        parsed record with the logical offset just past its line --
        resuming from that offset never re-reads the record, so a
        cursor-driven reader sees every event exactly once.  Only lines
        terminated by a newline are consumed: a line still being
        appended is left for the next call, so no read ever yields a
        torn record.  Unparseable lines (a sealed torn tail) are
        skipped but still advance ``next_offset``.

        Raises :class:`EventsTruncatedError` when ``offset`` precedes a
        compaction and :class:`BadCursorError` when it lies beyond the
        end of the log.
        """
        base = self.events_base()
        if offset < base:
            raise EventsTruncatedError(
                f"cursor offset {offset} precedes the compacted log"
                f" (events before offset {base} are gone)"
            )
        batch: list[tuple[dict, int]] = []
        try:
            fh = open(self.events_path, "rb")
        except OSError:
            if offset > base:
                raise BadCursorError(
                    f"cursor offset {offset} is beyond the end of the"
                    f" log ({base})"
                ) from None
            return batch, offset
        with fh:
            fh.seek(0, os.SEEK_END)
            end = base + fh.tell()
            if offset > end:
                raise BadCursorError(
                    f"cursor offset {offset} is beyond the end of the"
                    f" log ({end})"
                )
            fh.seek(offset - base)
            position = offset
            while limit is None or len(batch) < limit:
                line = fh.readline()
                if not line.endswith(b"\n"):
                    break  # torn tail (or EOF): leave it for later
                position += len(line)
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # sealed torn line: skip, offset advances
                batch.append((record, position))
        return batch, position

    def truncate_events(self) -> int:
        """Compact the audit log by discarding every event in it.

        The discarded byte count folds into ``events.base``, so logical
        offsets keep their meaning: a cursor minted before the
        compaction either still points at live data (offset == end) or
        gets :class:`EventsTruncatedError` on its next read.  Returns
        the new base offset.
        """
        with self._events_lock:
            try:
                dropped = os.path.getsize(self.events_path)
            except OSError:
                dropped = 0
            base = self.events_base() + dropped
            tmp = self.events_base_path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(f"{base}\n")
            os.replace(tmp, self.events_base_path)
            with open(self.events_path, "w"):
                pass
        return base

    # -- DAG hook --------------------------------------------------------

    def set_terminal_hook(self, callback) -> None:
        """Install ``callback(job)``, fired after terminal transitions.

        The callback runs after the transition's COMMIT and outside any
        transaction, so it may freely read and write the store (the DAG
        resolver releases children from it).  A callback failure is
        logged to the audit log and swallowed: completing a job must
        never fail because a dependent shard is wedged -- the recovery
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

        Atomic: either every insert of the batch commits or none does.
        Events are emitted post-COMMIT in submit order (no batch marker
        on the wire or in the log).
        """
        conn = self._connection()
        results: list[tuple[Job | None, Job | None]] = []
        inserted: list[Job] = []
        # Read before the transaction: these jobs' events are appended
        # after their rows commit, so this offset precedes all of them.
        events_from = self.events_end()
        conn.execute("BEGIN IMMEDIATE")
        try:
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
                results.append((job, None))
                inserted.append(job)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        for job in inserted:
            self._event(job.id, "submitted", kind=job.kind, key=job.key,
                        state=job.state.value, cached=job.cached)
        return results

    def cancel(self, job_id: str) -> bool:
        """Cancel a BLOCKED/PENDING job.

        Returns False when the job already left the queue (RUNNING or
        terminal) -- cancelling an already-terminal job is a no-op, not
        an error, so racing cancellers (a user and the DAG failure
        propagation) are both safe.
        """
        conn = self._connection()
        now = time.time()
        conn.execute("BEGIN IMMEDIATE")
        try:
            cur = conn.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE id = ?"
                " AND state IN (?, ?)",
                (JobState.CANCELLED.value, now, job_id,
                 JobState.BLOCKED.value, JobState.PENDING.value),
            )
            hit = cur.rowcount > 0
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if hit:
            self._event(job_id, "cancelled")
            self._fire_terminal(self.get(job_id))
        return hit

    # -- DAG edges (dependency-aware release) ----------------------------

    def children_of(self, parent_id: str) -> list[Job]:
        """BLOCKED jobs that declare ``parent_id`` as a parent.

        Edges are stored child-side (in this store's ``deps`` table), so
        a sharded deployment asks every shard and unions the answers --
        see :meth:`ShardedStore.children_of`.
        """
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
        conn = self._connection()
        now = time.time()
        conn.execute("BEGIN IMMEDIATE")
        try:
            cur = conn.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE id = ?"
                " AND state = ?",
                (JobState.PENDING.value, now, job_id,
                 JobState.BLOCKED.value),
            )
            hit = cur.rowcount > 0
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if hit:
            self._event(job_id, "released")
        return hit

    def cancel_from_parent(self, job_id: str, parent_id: str) -> bool:
        """Cancel a BLOCKED descendant of a FAILED/CANCELLED parent.

        Exactly-once by the same guarded-UPDATE argument as
        :meth:`release`; only the winner logs the single
        ``parent_failed`` audit event.  Unlike :meth:`cancel` this does
        *not* fire the terminal hook -- the resolver that calls it owns
        the whole descendant closure and would only re-enter itself.
        """
        conn = self._connection()
        now = time.time()
        conn.execute("BEGIN IMMEDIATE")
        try:
            cur = conn.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE id = ?"
                " AND state = ?",
                (JobState.CANCELLED.value, now, job_id,
                 JobState.BLOCKED.value),
            )
            hit = cur.rowcount > 0
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if hit:
            self._event(job_id, "parent_failed", parent=parent_id,
                        state=JobState.CANCELLED.value)
        return hit

    # -- leases (worker pools) -------------------------------------------

    def claim_batch(self, worker: str, limit: int = 1, ttl: float = 60.0,
                    now: float | None = None,
                    lease_id: str | None = None) -> tuple[Lease | None,
                                                          list[Job]]:
        """Atomically lease up to ``limit`` ready PENDING jobs to ``worker``.

        The batch and its lease are created in one transaction, so two
        pools polling one coordinator can never lease the same job.  Returns ``(None, [])`` when nothing is ready -- no empty
        lease is minted.  Expired leases are swept first, so a dead
        worker's jobs become claimable by the very call that replaces it.

        ``lease_id`` lets a sharded coordinator span one logical lease
        over several stores: each store records its own lease row under
        the caller's id.  Left ``None``, a fresh id is minted.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            rows = conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE state = ? AND not_before <= ?"
                " ORDER BY created, id LIMIT ?",
                (JobState.PENDING.value, now, max(0, int(limit))),
            ).fetchall()
            if not rows:
                conn.execute("COMMIT")
                return None, []
            lease = Lease(id=lease_id or new_lease_id(), worker=worker,
                          created=now, expires=now + ttl)
            conn.execute(
                "INSERT INTO leases (id, worker, created, expires)"
                " VALUES (?, ?, ?, ?)",
                (lease.id, lease.worker, lease.created, lease.expires),
            )
            jobs = []
            for row in rows:
                job = Job.from_row(row)
                job.state = JobState.RUNNING
                job.attempts += 1
                job.worker = worker
                job.lease_id = lease.id
                job.lease_expires = lease.expires
                job.updated = now
                conn.execute(
                    "UPDATE jobs SET state = ?, attempts = ?, worker = ?,"
                    " lease_id = ?, lease_expires = ?, updated = ?"
                    " WHERE id = ?",
                    (job.state.value, job.attempts, worker, lease.id,
                     lease.expires, now, job.id),
                )
                jobs.append(job)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        for job in jobs:
            self._event(job.id, "claimed", worker=worker,
                        attempt=job.attempts, lease=lease.id)
        return lease, jobs

    def heartbeat_lease(self, lease_id: str, ttl: float = 60.0,
                        now: float | None = None) -> Lease:
        """Extend a live lease (and its jobs) by ``ttl`` seconds.

        Raises :class:`LeaseExpiredError` when the lease has lapsed or
        never existed -- either way the worker no longer owns its jobs.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT id, worker, created, expires FROM leases"
                " WHERE id = ?", (lease_id,),
            ).fetchone()
            if row is None or row[3] <= now:
                conn.execute("COMMIT")
                raise LeaseExpiredError(
                    f"lease {lease_id} has expired or does not exist"
                )
            lease = Lease(id=row[0], worker=row[1], created=row[2],
                          expires=now + ttl)
            conn.execute("UPDATE leases SET expires = ? WHERE id = ?",
                         (lease.expires, lease_id))
            conn.execute(
                "UPDATE jobs SET lease_expires = ?, updated = ?"
                " WHERE lease_id = ? AND state = ?",
                (lease.expires, now, lease_id, JobState.RUNNING.value),
            )
            conn.execute("COMMIT")
        except LeaseExpiredError:
            raise
        except BaseException:
            conn.execute("ROLLBACK")
            raise
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
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            job = self._leased_job(conn, job_id, lease_id)
            job.state = JobState.DONE
            job.result_key = result_key
            job.error = ""
            job.lease_id = ""
            job.lease_expires = 0.0
            job.updated = now
            conn.execute(
                "UPDATE jobs SET state = ?, result_key = ?, error = '',"
                " lease_id = '', lease_expires = 0, updated = ?"
                " WHERE id = ?",
                (job.state.value, result_key, now, job_id),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        self._event(job_id, "done", state=job.state.value, lease=lease_id)
        self.discard_staged(job_id)
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
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            job = self._leased_job(conn, job_id, lease_id)
            if job.attempts <= job.max_retries:
                job.state = JobState.PENDING
                job.not_before = now + backoff_base * 2 ** (job.attempts - 1)
            else:
                job.state = JobState.FAILED
            job.error = error
            job.lease_id = ""
            job.lease_expires = 0.0
            job.updated = now
            conn.execute(
                "UPDATE jobs SET state = ?, not_before = ?, error = ?,"
                " lease_id = '', lease_expires = 0, updated = ?"
                " WHERE id = ?",
                (job.state.value, job.not_before, error, now, job_id),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        event = "requeued" if job.state is JobState.PENDING else "failed"
        self._event(job_id, event, state=job.state.value, lease=lease_id,
                    error=error.splitlines()[-1][:200] if error else "")
        self.discard_staged(job_id)
        self._fire_terminal(job)
        return job

    def expire_leases(self, now: float | None = None) -> list[Job]:
        """Requeue jobs whose lease lapsed; delete the dead leases.

        The scan, the job transitions, and the lease deletions share one
        write transaction, so concurrent sweeps (every claim/heartbeat
        runs one) serialize and each orphaned job is requeued **exactly
        once** -- the second sweep finds no matching rows.  Jobs whose
        retry budget is already spent are FAILED instead of requeued.
        A RUNNING row without a lease (claimed by a pre-lease version of
        the service; its ``lease_expires`` is 0) is an orphan by the
        same rule.
        """
        now = time.time() if now is None else now
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            dead = conn.execute(
                "SELECT id FROM leases WHERE expires <= ?", (now,)
            ).fetchall()
            rows = conn.execute(
                f"SELECT {_COLS} FROM jobs WHERE state = ?"
                " AND lease_expires <= ?",
                (JobState.RUNNING.value, now),
            ).fetchall()
            recovered = []
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
                recovered.append((job, expired_lease))
            if dead:
                conn.execute("DELETE FROM leases WHERE expires <= ?", (now,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        for job, expired_lease in recovered:
            self._event(job.id, "lease_expired", lease=expired_lease,
                        worker=job.worker, state=job.state.value)
            # A dead worker's half-uploaded result must not outlive its
            # lease: the requeued job will stream a fresh one.
            self.discard_staged(job.id)
            # Only jobs FAILED here (retry budget spent) are terminal;
            # requeued ones stay active, so their children stay BLOCKED.
            self._fire_terminal(job)
        return [job for job, _ in recovered]

    # -- staged result uploads (chunk streaming) -------------------------

    def _check_lease_owns(self, job_id: str, lease_id: str) -> Job:
        """Read-side lease guard for staging calls (no transaction)."""
        job = self.get(job_id)
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

    def staged_path(self, job_id: str) -> str:
        return os.path.join(self.staging_dir, f"{job_id}.part")

    def stage_chunk(self, job_id: str, lease_id: str, offset: int,
                    sha256: str, data: bytes,
                    now: float | None = None) -> int:
        """Verify and spool one uploaded chunk; returns bytes staged.

        Chunks must arrive in order, each hashing to its declared
        sha256, under a lease that still owns the job.  ``offset == 0``
        always (re)starts the upload -- a retrying worker or one talking
        to a restarted coordinator truncates any stale spool and begins
        fresh.  Chunks are appended to ``staging/<job_id>.part``; the
        upload is never held in memory.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        self._check_lease_owns(job_id, lease_id)
        with self._staging_lock:
            staged = self._staging.get(job_id)
            if offset == 0:
                if staged is not None:
                    staged.close()
                os.makedirs(self.staging_dir, exist_ok=True)
                staged = _StagedUpload(self.staged_path(job_id), lease_id)
                self._staging[job_id] = staged
                self._event(job_id, "stream_started", lease=lease_id)
            elif staged is None:
                raise ChunkOffsetError(
                    f"no staged upload for job {job_id}"
                    f" (expected offset 0, got {offset})"
                )
            received = staged.assembler.feed(offset, data, sha256)
            staged.lease_id = lease_id
            staged.fh.flush()
            return received

    def finish_staged(self, job_id: str, lease_id: str, size: int,
                      sha256: str,
                      now: float | None = None) -> str:
        """Verify a completed upload; returns the spooled file's path.

        The caller (the service facade) promotes the file into the
        result cache and then completes the lease.  On any verification
        failure the spool is discarded -- the worker must restart from
        offset 0.
        """
        now = time.time() if now is None else now
        self.expire_leases(now=now)
        self._check_lease_owns(job_id, lease_id)
        with self._staging_lock:
            staged = self._staging.pop(job_id, None)
            if staged is None:
                raise ChunkOffsetError(
                    f"no staged upload to finish for job {job_id}"
                )
            try:
                staged.assembler.finish(size, sha256)
            except BaseException:
                staged.close()
                self._unlink_spool(job_id)
                raise
            staged.close()
        self._event(job_id, "stream_finished", lease=lease_id, size=size)
        return staged.path

    def discard_staged(self, job_id: str) -> bool:
        """Drop any staged upload for ``job_id`` (registry + spool file).

        Returns True when something was removed.  Called by the
        lease-expiry sweep (a dead worker's partial upload must not
        outlive its lease) and by terminal job transitions.
        """
        with self._staging_lock:
            staged = self._staging.pop(job_id, None)
            if staged is not None:
                staged.close()
            removed = self._unlink_spool(job_id)
        if staged is not None or removed:
            self._event(job_id, "stream_discarded")
        return staged is not None or removed

    def _unlink_spool(self, job_id: str) -> bool:
        try:
            os.unlink(self.staged_path(job_id))
            return True
        except OSError:
            return False

    def staged_info(self, job_id: str) -> dict | None:
        """``{"bytes_received", "path", "lease"}`` for an in-flight upload."""
        with self._staging_lock:
            staged = self._staging.get(job_id)
            if staged is None:
                return None
            return {"bytes_received": staged.bytes_received,
                    "path": staged.path, "lease": staged.lease_id}

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

    @staticmethod
    def _filters(state, kind) -> tuple[str, list]:
        clauses, params = [], []
        if state is not None:
            value = state.value if isinstance(state, JobState) \
                else JobState(state).value
            clauses.append("state = ?")
            params.append(value)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, params

    def list(self, state: JobState | str | None = None,
             kind: str | None = None, limit: int | None = None,
             offset: int = 0) -> list[Job]:
        """Jobs matching the filters, oldest first, windowed.

        ``limit=None`` returns every match from ``offset`` on; a string
        ``state`` is validated against :class:`JobState` (raising
        ``ValueError`` on junk, which callers surface as bad input).
        """
        where, params = self._filters(state, kind)
        sql = f"SELECT {_COLS} FROM jobs{where} ORDER BY created, id"
        if limit is not None or offset:
            sql += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else max(0, int(limit)),
                       max(0, int(offset))]
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
