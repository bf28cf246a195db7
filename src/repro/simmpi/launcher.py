"""SPMD job launcher: one thread per rank, fail-fast error propagation.

``run_spmd`` is the simmpi analogue of ``mpiexec``: it creates a fabric,
spawns ``nranks`` threads each running the user function with its own world
communicator, and collects per-rank return values.  If any rank raises, the
fabric is aborted so every other rank's blocking receive unwinds with
:class:`~repro.errors.AbortError` instead of deadlocking, and the primary
failure is re-raised wrapped in :class:`~repro.errors.SpmdError`.

For the whole launch every loaded OpenBLAS runs one thread (see
:mod:`repro.blas.threads`): each rank thread and each FACT worker is
one BLAS thread, as §III.B binds one core to each, instead of every
BLAS call fanning out over the host's cores beside the other ranks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..blas.threads import one_blas_thread
from ..errors import AbortError, SpmdError
from .communicator import CommContext, Communicator
from .fabric import Fabric

#: Default stack size for rank threads (recursive pfact needs headroom).
_STACK_SIZE = 8 * 1024 * 1024


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    watchdog: float | None = None,
    fabric: Fabric | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks; return results.

    Args:
        nranks: World size.
        fn: SPMD entry point; receives a world
            :class:`~repro.simmpi.communicator.Communicator` as its first
            argument.
        watchdog: Per-receive deadlock timeout in seconds (see
            :class:`~repro.simmpi.fabric.Fabric`).
        fabric: Optional pre-built fabric (exposes post-run statistics).

    Returns:
        ``fn``'s return value for each rank, in rank order.

    Raises:
        SpmdError: if any rank raised; carries every rank's exception.
    """
    if fabric is None:
        fabric = Fabric(nranks, watchdog=watchdog)
    elif fabric.nranks != nranks:
        raise ValueError(
            f"fabric has {fabric.nranks} ranks but run_spmd was asked for {nranks}"
        )
    world_ctx = CommContext(("world",), tuple(range(nranks)))
    results: list[Any] = [None] * nranks
    failures: dict[int, BaseException] = {}
    failure_lock = threading.Lock()

    def entry(rank: int) -> None:
        comm = Communicator(fabric, world_ctx, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            with failure_lock:
                failures[rank] = exc
            fabric.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")

    old_stack = threading.stack_size()
    try:
        threading.stack_size(_STACK_SIZE)
        threads = [
            threading.Thread(target=entry, args=(rank,), name=f"simmpi-rank-{rank}")
            for rank in range(nranks)
        ]
    finally:
        threading.stack_size(old_stack)
    with one_blas_thread():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if failures:
        # AbortError failures are secondary (caused by the primary failure);
        # only report them if nothing else explains the crash.
        primary = {r: e for r, e in failures.items() if not isinstance(e, AbortError)}
        raise SpmdError(primary or failures)
    return results
