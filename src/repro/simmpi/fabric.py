"""Message fabric: per-rank mailboxes with MPI-style tag matching.

The fabric is the only piece of shared mutable state in an SPMD job.  Sends
are *eager*: the payload is copied into the destination mailbox immediately
(like an MPI eager-protocol send), so a send never blocks.  Receives block
until a matching message arrives, with a watchdog that converts an
indefinite wait into a :class:`~repro.errors.DeadlockError` so that a
mismatched communication pattern fails a test run instead of hanging it.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import AbortError, DeadlockError
from .stats import CommStats

#: Wildcard source rank for receives.
ANY_SOURCE: int = -1
#: Wildcard message tag for receives.
ANY_TAG: int = -1
#: User tags live below this; larger tags are reserved for collectives.
#: ANY_TAG deliberately matches only user tags, so wildcard receives can
#: never steal a collective's internal message (MPI gets the same
#: guarantee from separate communicator contexts).
MAX_USER_TAG: int = 1 << 24

#: How often a blocked receive wakes up to check for job abort (seconds).
_POLL_INTERVAL = 0.02


def _default_watchdog() -> float:
    return float(os.environ.get("REPRO_SIMMPI_TIMEOUT", "120"))


def payload_nbytes(obj: Any) -> int:
    """Best-effort size in bytes of a message payload.

    ndarrays report their exact buffer size; scalars and small tuples of
    scalars are approximated; anything else falls back to its pickled size.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, float, np.integer, np.floating, bool)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if obj is None:
        return 0
    import pickle

    return len(pickle.dumps(obj))


def copy_payload(obj: Any) -> Any:
    """Copy a payload at send time, giving MPI buffer semantics.

    The sender may freely overwrite its buffer after ``send`` returns and
    the receiver owns the object it gets back.  ndarrays are copied with
    ``np.array``; containers are copied recursively; scalars, strings and
    ``None`` are immutable and returned as-is.  Other objects are
    deep-copied.
    """
    if isinstance(obj, np.ndarray):
        return np.array(obj, copy=True)
    if isinstance(obj, tuple):
        return tuple(copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return [copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: copy_payload(v) for k, v in obj.items()}
    if obj is None or isinstance(
        obj, (int, float, str, bytes, bool, np.integer, np.floating)
    ):
        return obj
    import copy

    return copy.deepcopy(obj)


@dataclass
class _Envelope:
    """A message in flight: payload plus its matching metadata."""

    ctx_id: tuple
    source: int  # rank *within the context*
    tag: int
    payload: Any
    seq: int = 0  # delivery order, for FIFO-per-(source,tag) semantics


@dataclass
class _Mailbox:
    """Pending messages for one world rank, guarded by a condition."""

    cond: threading.Condition = field(default_factory=threading.Condition)
    pending: list[_Envelope] = field(default_factory=list)


class Fabric:
    """The shared transport connecting the ranks of one SPMD job.

    Args:
        nranks: Number of ranks (world size).
        watchdog: Seconds a blocking receive may wait before raising
            :class:`DeadlockError`.  Defaults to the ``REPRO_SIMMPI_TIMEOUT``
            environment variable, or 120 s.
        jitter: Maximum artificial delivery delay in seconds.  Zero by
            default; tests inject jitter to shake out ordering assumptions
            in the overlapped schedules (a correct SPMD program's results
            must not depend on message timing).
        jitter_seed: Seed for the jitter RNG (runs stay reproducible).
    """

    def __init__(
        self,
        nranks: int,
        watchdog: float | None = None,
        jitter: float = 0.0,
        jitter_seed: int = 0,
    ):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.nranks = nranks
        self.watchdog = _default_watchdog() if watchdog is None else watchdog
        self._jitter = jitter
        self._jitter_rng = random.Random(jitter_seed)
        self._boxes = [_Mailbox() for _ in range(nranks)]
        self._aborted = threading.Event()
        self._abort_reason: str | None = None
        self._seq_lock = threading.Lock()
        self._seq = 0
        self.stats = [CommStats(rank) for rank in range(nranks)]

    # ------------------------------------------------------------------
    # Abort handling
    # ------------------------------------------------------------------
    def abort(self, reason: str) -> None:
        """Mark the job as failed and wake every blocked receive."""
        self._abort_reason = reason
        self._aborted.set()
        for box in self._boxes:
            with box.cond:
                box.cond.notify_all()

    @property
    def aborted(self) -> bool:
        return self._aborted.is_set()

    def check_abort(self) -> None:
        if self._aborted.is_set():
            raise AbortError(f"SPMD job aborted: {self._abort_reason}")

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def deliver(
        self,
        dest_world: int,
        ctx_id: tuple,
        source_ctx_rank: int,
        tag: int,
        payload: Any,
    ) -> None:
        """Copy ``payload`` into ``dest_world``'s mailbox (eager send)."""
        self.check_abort()
        if self._jitter > 0.0:
            with self._seq_lock:
                delay = self._jitter_rng.random() * self._jitter
            time.sleep(delay)
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        env = _Envelope(ctx_id, source_ctx_rank, tag, copy_payload(payload), seq)
        box = self._boxes[dest_world]
        with box.cond:
            box.pending.append(env)
            box.cond.notify_all()

    def match(
        self,
        dest_world: int,
        ctx_id: tuple,
        source: int,
        tag: int,
        *,
        block: bool = True,
    ) -> _Envelope | None:
        """Find (and remove) the oldest message matching the selector.

        ``source``/``tag`` may be :data:`ANY_SOURCE`/:data:`ANY_TAG`.
        Returns ``None`` immediately when ``block`` is false and nothing
        matches.
        """
        box = self._boxes[dest_world]
        deadline = time.monotonic() + self.watchdog
        with box.cond:
            while True:
                self.check_abort()
                best: _Envelope | None = None
                for env in box.pending:
                    if env.ctx_id != ctx_id:
                        continue
                    if source != ANY_SOURCE and env.source != source:
                        continue
                    if tag == ANY_TAG:
                        if env.tag >= MAX_USER_TAG:
                            continue
                    elif env.tag != tag:
                        continue
                    if best is None or env.seq < best.seq:
                        best = env
                if best is not None:
                    box.pending.remove(best)
                    return best
                if not block:
                    return None
                if time.monotonic() >= deadline:
                    raise DeadlockError(
                        f"rank {dest_world}: receive (ctx={ctx_id}, source={source}, "
                        f"tag={tag}) unmatched after {self.watchdog:.0f}s"
                    )
                box.cond.wait(_POLL_INTERVAL)
