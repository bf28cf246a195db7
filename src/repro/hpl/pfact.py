"""FACT: recursive, multi-threaded panel factorization (paper Section III.A).

The panel is the current ``jb``-wide block column, tall and skinny: this
process owns ``m_act`` local rows of it (global positions ``>= j0``).  The
factorization is SPMD across the ``P`` processes of the grid column *and*
multi-threaded inside each process:

* **Across processes** the pivot for each column is found with one
  combined all-reduce over the column communicator, exchanging the
  candidate row and the current row in a single max-loc operation (the
  analogue of HPL's ``HPL_pdmxswp``).  Every process thereby accumulates
  an identical copy of the factored block row ``W`` -- the *replicated
  triangle* -- which lets the within-panel DTRSM-like updates run locally
  and redundantly, with no extra communication.

* **Within a process** the local rows are blocked into ``NB``-row tiles,
  round-robined over ``T`` threads (tile ``t`` -> thread ``t % T``), so the
  first tile is always the main thread's.  Each thread updates and searches
  only its own tiles.  Each pivot column is one handoff of the thread team
  (:meth:`~repro.blas.threaded.ParallelContext.handoff`): every thread
  deposits its best candidate, the main thread combines them in tid order,
  runs the cross-process all-reduce -- only it talks to MPI (paper Fig. 4)
  -- applies the swap, writes the pivot row into ``W`` and releases the
  team with the outcome.

The recursion (HPL's RFACT/NDIV/NBMIN) subdivides the panel; leaves run one
of three classic variants:

* ``RIGHT`` -- immediate rank-1 trailing updates (rocHPL's default);
* ``CROUT`` -- per-column pre-update, per-pivot row finalization;
* ``LEFT``  -- per-column triangular solve against the *raw* stored pivot
  rows, with the chunk's upper triangle finalized once at leaf end.

All variants keep the same invariant -- local multiplier columns and the
replicated ``W`` rows are exact after every chunk -- so they are
numerically interchangeable, as the tests verify against LAPACK.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from ..blas.kernels import FLOPS, unit_lower_solve_inplace
from ..blas.threaded import ParallelContext, TileWorkerPool
from ..config import HPLConfig, PFactVariant
from ..errors import SingularMatrixError
from ..grid.block_cyclic import owning_process
from ..simmpi import Communicator
from .panel import Panel

_FAR = 1 << 62  # sentinel "no candidate" pivot position


def _pivot_combine(x: tuple, y: tuple) -> tuple:
    """Max-loc combiner for the pivot all-reduce.

    Payloads are ``(value, gpos, row, cur)``: the best local candidate's
    absolute value, its global position, its full panel-width row, and --
    contributed only by the owner of the current row -- the current row's
    contents.  Larger value wins; ties break to the lower global position,
    making the factorization deterministic and grid-independent.
    """
    xv, xg, _, xc = x
    yv, yg, _, yc = y
    best = x if (xv, -xg) >= (yv, -yg) else y
    cur = xc if xc is not None else yc
    return (best[0], best[1], best[2], cur)


@dataclass
class _FactState:
    """State shared by the threads of one process during one panel FACT."""

    a: np.ndarray  # (m_act, jb) local active panel view
    pos: np.ndarray  # (m_act,) global positions of the local rows
    w: np.ndarray  # (jb, jb) replicated triangle being built
    ipiv: np.ndarray  # (jb,) global pivot positions
    j0: int
    jb: int
    mat_nb: int  # distribution block (tile height)
    m_act: int
    p: int
    myrow: int
    col_comm: Communicator
    pfact: PFactVariant
    lazy: bool  # recursion update order (LEFT/CROUT = lazy, RIGHT = eager)
    ndiv: int
    nbmin: int
    worker_flops: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def boundary(self, gpos: int) -> int:
        """First local row index with global position ``>= gpos``."""
        return int(np.searchsorted(self.pos, gpos))

    def owns(self, gpos: int) -> bool:
        return owning_process(gpos, self.mat_nb, self.p) == self.myrow

    def local_row(self, gpos: int) -> int:
        """Index *within the active view* of locally-owned position ``gpos``."""
        idx = self.boundary(gpos)
        assert idx < self.m_act and self.pos[idx] == gpos
        return idx


def _clip(slices: list[slice], lb: int) -> list[slice]:
    """Intersect tile slices with rows at or after index ``lb``."""
    out = []
    for sl in slices:
        lo = max(sl.start, lb)
        if lo < sl.stop:
            out.append(slice(lo, sl.stop))
    return out


def _split_sizes(w: int, ndiv: int) -> list[int]:
    """Chunk widths for one recursion level: ``ndiv`` pieces covering ``w``."""
    base = max(1, w // ndiv)
    sizes: list[int] = []
    off = 0
    while off + base < w and len(sizes) < ndiv - 1:
        sizes.append(base)
        off += base
    sizes.append(w - off)
    return sizes


def _update_cols(
    ctx: ParallelContext,
    st: _FactState,
    tiles: list[slice],
    ra: int,
    rb: int,
    ca: int,
    cb: int,
) -> None:
    """Apply factored panel rows ``[ra, rb)`` to panel columns ``[ca, cb)``.

    Main thread solves the replicated-triangle part (the within-panel
    DTRSM); all threads then apply the rank-``rb-ra`` update to their own
    active rows (the within-panel DGEMM) -- the structure the paper
    describes for the blocked variants.
    """
    if ca >= cb or ra >= rb:
        return
    if ctx.tid == 0:
        unit_lower_solve_inplace(st.w[ra:rb, ra:rb], st.w[ra:rb, ca:cb])
    ctx.barrier()
    lb = st.boundary(st.j0 + ca)
    for sl in _clip(tiles, lb):
        st.a[sl, ca:cb] -= st.a[sl, ra:rb] @ st.w[ra:rb, ca:cb]
        FLOPS.add(2.0 * (sl.stop - sl.start) * (cb - ca) * (rb - ra))
    ctx.barrier()


def _thread_best(u: tuple, v: tuple) -> tuple:
    """Max-loc over threads' ``(value, gpos, lidx)``; ties to the lower gpos."""
    return u if (u[0], -u[1]) >= (v[0], -v[1]) else v


def _pivot(st: _FactState, slots: list, a: int, j: int, b: int) -> bool:
    """tid 0's half of column ``j``'s handoff; ``False`` on a zero pivot.

    Combines the threads' candidates in tid order, runs the cross-process
    max-loc all-reduce, swaps the current row into the pivot's old slot and
    writes the finished pivot row into ``W``.
    """
    val, gpos, lidx = functools.reduce(_thread_best, slots)
    aa, w = st.a, st.w
    row = aa[lidx, :].copy() if lidx >= 0 and val >= 0.0 else None
    if row is None:
        val, gpos = -1.0, _FAR
    cur = None
    if st.owns(st.j0 + j):
        cur = aa[st.local_row(st.j0 + j), :].copy()
    with st.col_comm.phase("FACT"):
        val, gpos, wrow, cur = st.col_comm.allreduce(
            (val, gpos, row, cur), op=_pivot_combine
        )
    if val <= 0.0:
        return False
    st.ipiv[j] = gpos
    # Move the displaced current row into the pivot's old slot.
    if gpos != st.j0 + j and st.owns(gpos):
        aa[st.local_row(gpos), :] = cur
    # Store the winning row into the replicated triangle.
    wfin = wrow.copy()
    if st.pfact is PFactVariant.CROUT and j > a:
        wfin[j + 1 : b] -= wfin[a:j] @ w[a:j, j + 1 : b]
        FLOPS.add(2.0 * (j - a) * (b - j - 1))
    w[j, :] = wfin
    return True


def _leaf(
    ctx: ParallelContext,
    st: _FactState,
    tiles: list[slice],
    a: int,
    b: int,
) -> None:
    """Factor panel columns ``[a, b)`` with the configured leaf variant."""
    variant = st.pfact
    aa, w = st.a, st.w
    for j in range(a, b):
        cand_lb = st.boundary(st.j0 + j)
        # ---- column pre-update (CROUT / LEFT) --------------------------
        if variant is not PFactVariant.RIGHT and j > a:
            if variant is PFactVariant.CROUT:
                ucol = w[a:j, j]  # already final
            else:  # LEFT: solve the raw prefix against the multipliers
                ucol = None
                if ctx.tid == 0:
                    ucol = w[a:j, j].copy()
                    unit_lower_solve_inplace(w[a:j, a:j], ucol)
                ucol = ctx.bcast(ucol)
            for sl in _clip(tiles, cand_lb):
                aa[sl, j] -= aa[sl, a:j] @ ucol
                FLOPS.add(2.0 * (sl.stop - sl.start) * (j - a))
        # ---- local pivot search over this thread's tiles ---------------
        best_val, best_idx = -1.0, -1
        for sl in _clip(tiles, cand_lb):
            col = np.abs(aa[sl, j])
            i = int(np.argmax(col))
            v = float(col[i])
            idx = sl.start + i
            if (v, -int(st.pos[idx])) > (best_val, -(int(st.pos[best_idx]) if best_idx >= 0 else _FAR)):
                best_val, best_idx = v, idx
        # ---- one handoff: candidates to tid 0, which alone talks to MPI --
        cand = (best_val, int(st.pos[best_idx]) if best_idx >= 0 else _FAR, best_idx)
        if not ctx.handoff(cand, lambda slots: _pivot(st, slots, a, j, b)):
            raise SingularMatrixError(f"zero pivot at global column {st.j0 + j}")
        # ---- scale (+ rank-1 for RIGHT) on this thread's rows -----------
        upd_lb = st.boundary(st.j0 + j + 1)
        inv = 1.0 / w[j, j]
        for sl in _clip(tiles, upd_lb):
            aa[sl, j] *= inv
            FLOPS.add(float(sl.stop - sl.start))
            if variant is PFactVariant.RIGHT and j + 1 < b:
                aa[sl, j + 1 : b] -= aa[sl, j : j + 1] @ w[j : j + 1, j + 1 : b]
                FLOPS.add(2.0 * (sl.stop - sl.start) * (b - j - 1))
    # ---- LEFT leaf end: finalize the chunk's strictly-upper triangle ----
    if variant is PFactVariant.LEFT and ctx.tid == 0:
        for s in range(a + 1, b):
            col = w[a:s, s].copy()
            unit_lower_solve_inplace(w[a:s, a:s], col)
            w[a:s, s] = col
    ctx.barrier()


def _rfact(
    ctx: ParallelContext, st: _FactState, tiles: list[slice], c0: int, w: int
) -> None:
    """Recursive factorization of panel columns ``[c0, c0 + w)``."""
    if w <= st.nbmin:
        _leaf(ctx, st, tiles, c0, c0 + w)
        return
    off = c0
    for cw in _split_sizes(w, st.ndiv):
        if st.lazy and off > c0:
            _update_cols(ctx, st, tiles, c0, off, off, off + cw)
        _rfact(ctx, st, tiles, off, cw)
        if not st.lazy and off + cw < c0 + w:
            _update_cols(ctx, st, tiles, off, off + cw, off + cw, c0 + w)
        off += cw


def factor_panel(
    col_comm: Communicator,
    a_active: np.ndarray,
    pos: np.ndarray,
    k: int,
    j0: int,
    jb: int,
    cfg: HPLConfig,
    pool: TileWorkerPool,
    myrow: int,
    p: int,
) -> Panel:
    """LU-factor the local panel; collective over the grid column.

    Args:
        col_comm: Column communicator (``p`` ranks; rank == grid row).
        a_active: ``(m_act, jb)`` local view of the panel columns for rows
            with global position ``>= j0``.  Mutated in place: on return
            the active rows hold the L multipliers and the block rows (on
            their owner) the factored block row.
        pos: Global positions of the active rows, ascending.
        k: Panel index.
        j0: Global start row/column of the panel.
        jb: Panel width.
        cfg: Run configuration (variants, recursion, threading).
        pool: Thread pool sized to this process's FACT thread count.
        myrow: This process's grid row.
        p: Grid rows.

    Returns:
        The factored :class:`~repro.hpl.panel.Panel` (W replicated, L2
        local).

    Raises:
        SingularMatrixError: on an exactly-zero global pivot.
    """
    m_act = a_active.shape[0]
    if a_active.shape[1] != jb:
        raise ValueError(f"panel view width {a_active.shape[1]} != jb {jb}")
    st = _FactState(
        a=a_active,
        pos=pos,
        w=np.zeros((jb, jb), order="F"),
        ipiv=np.full(jb, -1, dtype=np.int64),
        j0=j0,
        jb=jb,
        mat_nb=cfg.nb,
        m_act=m_act,
        p=p,
        myrow=myrow,
        col_comm=col_comm,
        pfact=cfg.pfact,
        lazy=cfg.rfact is not PFactVariant.RIGHT,
        ndiv=cfg.ndiv,
        nbmin=cfg.nbmin,
    )

    def region(ctx: ParallelContext) -> None:
        tiles = ctx.tile_slices(m_act, cfg.nb)
        try:
            _rfact(ctx, st, tiles, 0, jb)
        finally:
            if ctx.tid != 0:
                extra = FLOPS.take()
                with st.lock:
                    st.worker_flops += extra

    pool.run(region)
    FLOPS.add(st.worker_flops)
    st.worker_flops = 0.0

    # Owner of the block rows stores the final factored block row.
    b2 = st.boundary(j0 + jb)
    if st.owns(j0):
        blk0 = st.boundary(j0)
        assert b2 - blk0 == jb, "block rows must be contiguous on their owner"
        a_active[blk0:b2, :] = st.w
    l2 = np.asfortranarray(a_active[b2:, :].copy())
    return Panel(k=k, j0=j0, jb=jb, w=st.w, ipiv=st.ipiv, l2=l2)
