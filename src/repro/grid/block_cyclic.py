"""2D block-cyclic index arithmetic (one dimension at a time).

A global index range ``[0, n)`` is blocked into ``nb``-sized blocks and the
blocks are dealt round-robin to ``nprocs`` processes, block ``b`` going to
process ``b % nprocs`` (ScaLAPACK conventions with source process 0, which
is what HPL uses).  These helpers answer the ownership and translation
questions the solver and the performance ledger both need, and are the
authoritative definition both must agree on; :func:`section_extents`
builds every rank's per-iteration column sections from them for both.

All functions are pure and are exercised by hypothesis property tests
(partition, round-trip, and monotonicity laws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Schedule

#: Iteration DAG shapes, as int8 codes (:attr:`SectionExtents.mode`).
MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT = 0, 1, 2
MODE_NAMES = {MODE_CLASSIC: "classic", MODE_LOOKAHEAD: "lookahead", MODE_SPLIT: "split"}


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


@dataclass(frozen=True)
class SectionExtents:
    """Local column sections of iteration ``k`` on process ``(row, col)``.

    The look-ahead section is ``[lo, la_hi)``, panel ``k+1``'s local
    columns (empty under classic and off panel ``k+1``'s grid column).
    The left section is ``[la_hi, sp)`` in split mode and ``[la_hi,
    nloc_aug)`` otherwise; the right one is ``[sp, nloc_aug)`` in split
    mode and empty otherwise.
    """

    lo: np.ndarray  # first local column right of panel k
    la_hi: np.ndarray  # end of panel k+1's local columns
    sp: np.ndarray  # split's block-aligned left/right boundary (0 unless split)
    nloc_aug: np.ndarray  # local columns of [A | b]
    m_update: np.ndarray  # local rows below panel k (the update's height)
    mode: np.ndarray  # int8 MODE_* codes


def section_extents(
    n: int, nb: int, p: int, q: int, schedule: Schedule, split_fraction: float,
    k, row, col,
) -> SectionExtents:
    """Section bounds of iterations ``k`` on grid processes ``(row, col)``.

    ``k``, ``row`` and ``col`` broadcast against each other, and only the
    requested (iteration, process) pairs are computed.  ``k = -1`` places
    panel 0: iteration ``k - 1``'s ``lo`` and ``m_update`` are panel
    ``k``'s first local column and local height.  Split mode lasts while
    the shrinking left section is non-empty (``lo < sp``); the right
    section keeps ``split_fraction`` of the local columns, rounded, its
    boundary aligned down to a block.
    """
    k, row, col = np.broadcast_arrays(*(np.asarray(a, np.int64) for a in (k, row, col)))
    j1 = np.minimum(n, (k + 1) * nb)  # end of panel k
    lo = num_local_before_array(j1, nb, col, q)
    nloc_aug = numroc_array(n + 1, nb, np.arange(q), q)[col]
    m_update = numroc_array(n, nb, np.arange(p), p)[row]
    m_update = m_update - num_local_before_array(j1, nb, row, p)
    sp = np.zeros_like(lo)
    if schedule is Schedule.CLASSIC:
        mode = np.full(lo.shape, MODE_CLASSIC, dtype=np.int8)
        return SectionExtents(lo, lo, sp, nloc_aug, m_update, mode)
    # Panel k+1's columns lie in block k+1, all on one grid column.
    la_hi = lo + np.where((k + 1) % q == col, np.minimum(n, j1 + nb) - j1, 0)
    if schedule is Schedule.SPLIT_UPDATE:
        n2 = np.rint(split_fraction * nloc_aug).astype(np.int64)
        sp = np.maximum(0, (nloc_aug - n2) // nb * nb)
    mode = np.where(lo < sp, MODE_SPLIT, MODE_LOOKAHEAD).astype(np.int8)
    return SectionExtents(lo, la_hi, sp, nloc_aug, m_update, mode)


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
