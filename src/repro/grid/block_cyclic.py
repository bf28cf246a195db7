"""2D block-cyclic index arithmetic (one dimension at a time).

A global index range ``[0, n)`` is blocked into ``nb``-sized blocks and the
blocks are dealt round-robin to ``nprocs`` processes, block ``b`` going to
process ``b % nprocs`` (ScaLAPACK conventions with source process 0, which
is what HPL uses).  These helpers answer the ownership and translation
questions the solver and the performance ledger both need, and are the
authoritative definition both must agree on.

All functions are pure and are exercised by hypothesis property tests
(partition, round-trip, and monotonicity laws).
"""

from __future__ import annotations

import numpy as np


def _check(nb: int, nprocs: int) -> None:
    if nb < 1:
        raise ValueError(f"nb must be >= 1, got {nb}")
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")


def owning_process(g: int, nb: int, nprocs: int) -> int:
    """Process owning global index ``g``."""
    _check(nb, nprocs)
    if g < 0:
        raise ValueError(f"global index must be >= 0, got {g}")
    return (g // nb) % nprocs


def num_local_before(g: int, nb: int, iproc: int, nprocs: int) -> int:
    """How many global indices in ``[0, g)`` process ``iproc`` owns.

    This is the local offset at which the trailing range ``[g, n)`` begins
    in ``iproc``'s local storage.
    """
    _check(nb, nprocs)
    if g < 0:
        raise ValueError(f"global index must be >= 0, got {g}")
    if not 0 <= iproc < nprocs:
        raise ValueError(f"iproc {iproc} outside [0, {nprocs})")
    block, offset = divmod(g, nb)
    # Full blocks owned by iproc among blocks [0, block):
    if block > iproc:
        nfull = (block - iproc - 1) // nprocs + 1
    else:
        nfull = 0
    count = nfull * nb
    if block % nprocs == iproc:
        count += offset
    return count


def numroc(n: int, nb: int, iproc: int, nprocs: int) -> int:
    """NUMber of Rows Or Columns: local extent of ``[0, n)`` on ``iproc``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return num_local_before(n, nb, iproc, nprocs)


def num_local_before_array(g, nb: int, iproc, nprocs: int) -> np.ndarray:
    """Vectorized :func:`num_local_before` over ``g`` and/or ``iproc``.

    Pure int64 arithmetic, so the result is exactly the scalar function
    applied elementwise (the fast ledger computes every iteration's local
    extents in one shot through this).  Of the ``block = g // nb`` full
    blocks before ``g``, ``iproc`` owns ``ceil((block - iproc) / nprocs)``
    (zero when ``block <= iproc``): the quotient of ``block - iproc +
    nprocs - 1 >= 0`` by ``nprocs``.  Its remainder is ``nprocs - 1``
    exactly when ``block % nprocs == iproc``, i.e. when ``iproc`` also
    owns the partial block holding ``g``.
    """
    _check(nb, nprocs)
    g = np.asarray(g, dtype=np.int64)
    iproc = np.asarray(iproc, dtype=np.int64)
    if g.size and g.min() < 0:
        raise ValueError("global indices must be >= 0")
    if iproc.size and (iproc.min() < 0 or iproc.max() >= nprocs):
        raise ValueError(f"iproc outside [0, {nprocs})")
    block, offset = np.divmod(g, nb)
    nfull, rem = np.divmod(block - iproc + (nprocs - 1), nprocs)
    return nfull * nb + np.where(rem == nprocs - 1, offset, 0)


def numroc_array(n, nb: int, iproc, nprocs: int) -> np.ndarray:
    """Vectorized :func:`numroc` over ``n`` and/or ``iproc``."""
    n = np.asarray(n)
    if n.size and n.min() < 0:
        raise ValueError("n must be >= 0")
    return num_local_before_array(n, nb, iproc, nprocs)


def global_to_local(g: int, nb: int, nprocs: int) -> tuple[int, int]:
    """Map a global index to ``(owning process, local index)``."""
    _check(nb, nprocs)
    if g < 0:
        raise ValueError(f"global index must be >= 0, got {g}")
    block, offset = divmod(g, nb)
    iproc = block % nprocs
    local_block = block // nprocs
    return iproc, local_block * nb + offset


def local_to_global(loc: int, nb: int, iproc: int, nprocs: int) -> int:
    """Map a local index on ``iproc`` back to its global index."""
    _check(nb, nprocs)
    if loc < 0:
        raise ValueError(f"local index must be >= 0, got {loc}")
    if not 0 <= iproc < nprocs:
        raise ValueError(f"iproc {iproc} outside [0, {nprocs})")
    local_block, offset = divmod(loc, nb)
    return (local_block * nprocs + iproc) * nb + offset


def local_indices(n: int, nb: int, iproc: int, nprocs: int) -> np.ndarray:
    """Global indices owned by ``iproc`` within ``[0, n)``, ascending.

    Vectorized; the result has length ``numroc(n, nb, iproc, nprocs)``.
    """
    _check(nb, nprocs)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    count = numroc(n, nb, iproc, nprocs)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    loc = np.arange(count, dtype=np.int64)
    local_block, offset = np.divmod(loc, nb)
    return (local_block * nprocs + iproc) * nb + offset
