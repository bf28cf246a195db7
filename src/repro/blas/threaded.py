"""Tiled thread pool for the multi-threaded panel factorization (paper III.A).

The panel being LU-factored is tall and skinny (``M x NB``).  Following the
paper (and the Parallel Cache Assignment technique it cites), the panel's
rows are blocked into ``NB``-row tiles and tile ``t`` is owned by thread
``t % T`` -- round-robin, so the first tile (which holds the upper triangle
and all pivot-source rows) always belongs to the main thread.  Each thread
touches only its own tiles, keeping them hot in the cache private to the
core the thread is bound to.

:class:`TileWorkerPool` provides the OpenMP-style execution model the
factorization needs: a persistent parallel region (`run`) and thread-local
tile assignment, with one synchronisation primitive,
:meth:`ParallelContext.handoff` -- a master-mediated rendezvous.  Every
thread deposits a slot; the main thread (tid 0) receives all slots in tid
order, runs a function on them and publishes the one result back.  The
barrier, the broadcast, the all-thread reduction (the pivot max-loc
search) and the region start/done handshake are all built on the same pair
of per-worker locks.  The main thread is the only one that talks to MPI,
exactly as in rocHPL, and it does so inside a handoff while the workers
wait.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def tile_slices(nrows: int, tile: int, tid: int, nthreads: int) -> list[slice]:
    """Row slices of the tiles owned by thread ``tid``.

    Rows ``[0, nrows)`` are blocked into ``tile``-row tiles; tile ``t`` is
    owned by thread ``t % nthreads``.  The final tile may be short.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    if not 0 <= tid < nthreads:
        raise ValueError(f"tid {tid} outside [0, {nthreads})")
    out = []
    ntiles = (nrows + tile - 1) // tile
    for t in range(tid, ntiles, nthreads):
        out.append(slice(t * tile, min((t + 1) * tile, nrows)))
    return out


class ParallelAbort(Exception):
    """Internal: a sibling thread failed; unwind quietly."""


class ParallelContext:
    """Per-thread handle inside a :meth:`TileWorkerPool.run` region."""

    def __init__(self, pool: "TileWorkerPool", tid: int):
        self.pool = pool
        self.tid = tid
        self.nthreads = pool.nthreads
        self._seq = 0  # handoffs this thread has entered in the region

    def handoff(
        self, value: Any = None, master: Callable[[list], R] | None = None
    ) -> R:
        """The pool's one rendezvous: gather at tid 0, then release.

        Every thread passes its ``value``.  Once all have arrived, tid 0
        calls ``master(slots)`` with the values in tid order (workers'
        ``master`` is ignored; ``None`` publishes ``None``) and every
        thread returns its result.  An exception in ``master`` propagates
        on tid 0 and aborts the region.
        """
        pool = self.pool
        if self.nthreads == 1:
            return master([value]) if master is not None else None  # type: ignore[return-value]
        self._seq += 1
        if pool._broken:  # never block once an abort is visible
            raise ParallelAbort()
        if self.tid:
            pool._slots[self.tid] = value
            pool._post(pool._arrive[self.tid - 1])
            pool._go[self.tid - 1].acquire()
            if pool._seq != self._seq:  # woken by an abort, not a release
                raise ParallelAbort()
            return pool._cell
        slots = pool._slots
        slots[0] = value
        for lock in pool._arrive:
            lock.acquire()
        if pool._broken:
            raise ParallelAbort()
        result = master(slots) if master is not None else None
        pool._cell = result
        pool._seq = self._seq
        for lock in pool._go:
            pool._post(lock)
        return result  # type: ignore[return-value]

    def barrier(self) -> None:
        """Synchronize all threads of the region."""
        self.handoff()

    def bcast(self, obj: T | None = None, root: int = 0) -> T:
        """Broadcast ``obj`` from thread ``root`` to every thread."""
        return self.handoff(obj, lambda slots: slots[root])

    def reduce(self, value: T, combine: Callable[[T, T], T]) -> T:
        """All-thread reduction; every thread returns the combined value.

        The combination order is deterministic (tid order), so
        non-commutative tie-breaking combiners -- like the pivot max-loc --
        give every thread the same answer.
        """
        return self.handoff(value, lambda slots: functools.reduce(combine, slots))

    def tile_slices(self, nrows: int, tile: int) -> list[slice]:
        """This thread's round-robin tile slices over ``nrows`` rows."""
        return tile_slices(nrows, tile, self.tid, self.nthreads)


class TileWorkerPool:
    """A persistent pool executing OpenMP-style parallel regions.

    The pool owns ``nthreads - 1`` worker threads; the caller of
    :meth:`run` participates as thread 0 (the "main thread" in the paper's
    terminology).  Workers persist across regions, like an OpenMP runtime's
    thread team, so per-panel invocation cost is one release and one
    gather.

    Each worker ``t`` has two raw locks, both held while idle: it releases
    ``arrive`` when it reaches a rendezvous (or the end of a region), and
    acquires ``go`` to leave one (or to start a region).  Only worker ``t``
    releases ``arrive`` and only tid 0 acquires it; only tid 0 releases
    ``go`` and only worker ``t`` acquires it.  tid 0 writes the shared cell
    only after every worker has arrived, and a worker reads it before it
    can arrive again, so no worker can miss a value.

    A failure on any thread aborts the region: the pool is marked broken
    and every lock is released.  Every thread checks the mark before it
    blocks, so each waiter either wakes or never waits; a worker woken by
    the abort rather than by a publish unwinds with :class:`ParallelAbort`,
    while one whose handoff tid 0 had already published still returns that
    value (so a zero pivot raises the same error on every thread).  The
    workers then exit; the next :meth:`run` starts a fresh team.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(self, nthreads: int):
        if nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        self.nthreads = nthreads
        self._slots: list[Any] = [None] * nthreads
        self._cell: Any = None
        self._seq = 0  # handoffs tid 0 has published in the region
        self._fn: Callable[[ParallelContext], Any] | None = None
        self._arrive: list[threading.Lock] = []
        self._go: list[threading.Lock] = []
        self._broken = False
        self._errors: dict[int, BaseException] = {}
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def _post(self, lock: threading.Lock) -> None:
        """Release ``lock``; after an abort it may already be released."""
        try:
            lock.release()
        except RuntimeError:
            if not self._broken:
                raise

    def _abort(self) -> None:
        """Mark the pool broken and wake every thread waiting on it."""
        self._broken = True
        for lock in (*self._arrive, *self._go):
            self._post(lock)

    def _ensure_workers(self) -> None:
        if self._threads or self.nthreads == 1:
            return
        self._broken = False
        self._arrive = [threading.Lock() for _ in range(self.nthreads - 1)]
        self._go = [threading.Lock() for _ in range(self.nthreads - 1)]
        for lock in (*self._arrive, *self._go):
            lock.acquire()
        for tid in range(1, self.nthreads):
            thread = threading.Thread(
                target=self._worker_loop, args=(tid,), name=f"pfact-worker-{tid}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _join_workers(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    def _worker_loop(self, tid: int) -> None:
        arrive, go = self._arrive[tid - 1], self._go[tid - 1]
        while not self._broken:
            go.acquire()  # region start
            if self._broken:
                return
            try:
                assert self._fn is not None
                self._fn(ParallelContext(self, tid))
            except ParallelAbort:
                return
            except BaseException as exc:  # noqa: BLE001 - reported to run()
                self._errors[tid] = exc
                self._abort()
                return
            self._post(arrive)  # region done

    # ------------------------------------------------------------------
    def run(self, fn: Callable[[ParallelContext], T]) -> T:
        """Execute ``fn(ctx)`` on all ``nthreads`` threads; return tid 0's result.

        Any exception raised by any thread is re-raised here (the first
        one in tid order), after all threads have left the region.
        """
        if self.nthreads == 1:
            return fn(ParallelContext(self, 0))
        self._ensure_workers()
        self._errors.clear()
        self._fn = fn
        self._seq = 0
        for lock in self._go:
            lock.release()
        result: T | None = None
        try:
            result = fn(ParallelContext(self, 0))
        except ParallelAbort:
            pass
        except BaseException as exc:  # noqa: BLE001
            self._errors[0] = exc
            self._abort()
        if not self._broken:
            for lock in self._arrive:
                lock.acquire()
        if self._broken:
            self._join_workers()
        if self._errors:
            raise self._errors[min(self._errors)]
        return result  # type: ignore[return-value]

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent)."""
        if self._threads:
            self._abort()
            self._join_workers(timeout=5.0)

    def __enter__(self) -> "TileWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
