"""RS: the row-swapping phase (paper Fig. 2c).

The ``jb`` sequential pivot swaps from FACT are first collapsed into a *net
permutation* over the touched rows (the analogue of HPL's ``HPL_pipid``).
The net effect always has this shape:

* the rows that end up *in* the current block row are the pivot rows --
  they become ``U`` and every process in the column needs them, so they are
  assembled with a ring **allgatherv**;
* every row that changes *outside* the block receives an original block
  row, so the block-row owner **scatterv**'s those rows to their
  destinations.

That is exactly the ``MPI_Scatterv`` + ``MPI_Allgatherv`` formulation the
paper describes.  :class:`RowSwapper` splits the phase into three stages --
``gather`` (pack, purely local), ``communicate`` (the two collectives) and
``scatter_back`` (write-back, purely local) -- because the split-update
schedule interleaves these stages across iterations: RS2's communicate
happens one iteration before its scatter_back.

Each instance covers one local *column section* ``[col_lo, col_hi)``; the
look-ahead / left / right sections of an iteration each get their own
swapper over the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.block_cyclic import owning_process
from .matrix import DistMatrix


@dataclass(frozen=True)
class SwapPlan:
    """Net permutation of one panel's pivot swaps.

    Attributes:
        j0: Global start of the block row.
        jb: Block height (== panel width).
        ipiv: The raw sequential pivot positions.
        u_src: ``u_src[i]`` is the original global row whose content ends
            up at block row ``j0 + i`` (these rows form U, in order).
        out_dest: Global rows outside the block whose content changes.
        out_src: For each ``out_dest``, the original (block) row whose
            content lands there.  Always inside the block.
    """

    j0: int
    jb: int
    ipiv: np.ndarray
    u_src: np.ndarray
    out_dest: np.ndarray
    out_src: np.ndarray


def compute_swap_plan(ipiv: np.ndarray, j0: int, jb: int) -> SwapPlan:
    """Collapse sequential swaps ``(j0+i <-> ipiv[i])`` into a net plan."""
    if ipiv.shape != (jb,):
        raise ValueError(f"ipiv shape {ipiv.shape} != ({jb},)")
    content: dict[int, int] = {}  # position -> original row currently there

    def at(posn: int) -> int:
        return content.get(posn, posn)

    for i in range(jb):
        a, b = j0 + i, int(ipiv[i])
        if b < a:
            raise ValueError(f"pivot {b} above current row {a}")
        content[a], content[b] = at(b), at(a)

    u_src = np.array([at(j0 + i) for i in range(jb)], dtype=np.int64)
    dests, srcs = [], []
    for dest in sorted(content):
        src = content[dest]
        if dest >= j0 + jb and src != dest:
            if not j0 <= src < j0 + jb:
                raise AssertionError(
                    f"out-of-block destination {dest} sourced from non-block row {src}"
                )
            dests.append(dest)
            srcs.append(src)
    return SwapPlan(
        j0=j0,
        jb=jb,
        ipiv=ipiv.copy(),
        u_src=u_src,
        out_dest=np.array(dests, dtype=np.int64),
        out_src=np.array(srcs, dtype=np.int64),
    )


#: Point-to-point tag for the binary-exchange rounds.
_BINEXCH_TAG = 4242


class RowSwapper:
    """Executes a :class:`SwapPlan` on one local column section.

    Stages must run in order: :meth:`gather` -> :meth:`communicate` ->
    :meth:`scatter_back`; :attr:`u` is available after ``communicate``.
    The caller applies the panel DTRSM to :attr:`u` and then calls
    :meth:`store_u` so the block rows hold the final U.

    ``algo`` selects HPL's SWAP algorithm for the U assembly:

    * ``"long"`` -- the spread-roll form the paper describes: a ring
      allgatherv (bandwidth-optimal, ``P-1`` hops of ``1/P`` of U each);
    * ``"binexch"`` -- binary exchange: ``ceil(log2 P)`` rounds of
      pairwise merges (latency-optimal; HPL prefers it for narrow
      sections).

    Both produce identical results; only the message pattern differs.
    """

    def __init__(
        self,
        mat: DistMatrix,
        plan: SwapPlan,
        col_lo: int,
        col_hi: int,
        phase: str = "RS",
        algo: str = "long",
    ):
        if algo not in ("long", "binexch"):
            raise ValueError(f"unknown swap algorithm {algo!r}")
        self.algo = algo
        if not 0 <= col_lo <= col_hi <= mat.nloc_aug:
            raise ValueError(
                f"column section [{col_lo}, {col_hi}) outside [0, {mat.nloc_aug})"
            )
        self.mat = mat
        self.plan = plan
        self.col_lo = col_lo
        self.col_hi = col_hi
        self.phase = phase
        grid = mat.grid
        self.comm = grid.col_comm
        self.p = grid.p
        self.myrow = grid.myrow
        self.block_owner = owning_process(plan.j0, mat.nb, self.p)
        # Deterministic ownership maps every rank computes identically.
        owners_u = (plan.u_src // mat.nb) % self.p
        self.u_by_rank = [np.nonzero(owners_u == r)[0] for r in range(self.p)]
        owners_out = (plan.out_dest // mat.nb) % self.p
        self.out_by_rank = [np.nonzero(owners_out == r)[0] for r in range(self.p)]
        self.u: np.ndarray | None = None
        self._u_contrib: np.ndarray | None = None
        self._packets: list[np.ndarray] | None = None
        self._incoming: np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo

    def _local_rows(self, gpos: np.ndarray) -> np.ndarray:
        return np.array(
            [self.mat.local_row_of(int(g)) for g in gpos], dtype=np.int64
        )

    # ------------------------------------------------------------------
    def gather(self) -> None:
        """Pack this rank's outgoing rows (purely local reads)."""
        a, plan = self.mat.a, self.plan
        cols = slice(self.col_lo, self.col_hi)
        mine = self.u_by_rank[self.myrow]
        rows = self._local_rows(plan.u_src[mine])
        self._u_contrib = np.asfortranarray(a[rows, cols]) if rows.size else np.zeros(
            (0, self.width), order="F"
        )
        if self.myrow == self.block_owner:
            self._packets = []
            for r in range(self.p):
                idx = self.out_by_rank[r]
                src_rows = self._local_rows(plan.out_src[idx])
                packet = (
                    np.asfortranarray(a[src_rows, cols])
                    if src_rows.size
                    else np.zeros((0, self.width), order="F")
                )
                self._packets.append(packet)

    def communicate(self) -> None:
        """Assemble U (ring allgatherv or binary exchange) and export the
        outgoing block rows (scatterv from the block owner)."""
        if self._u_contrib is None:
            raise RuntimeError("communicate() before gather()")
        plan = self.plan
        with self.comm.phase(self.phase):
            if self.algo == "binexch":
                parts = self._binexch_allgather(self._u_contrib)
            else:
                parts = dict(enumerate(self.comm.allgatherv(self._u_contrib)))
            self._incoming = self.comm.scatterv(self._packets, root=self.block_owner)
        self.u = np.zeros((plan.jb, self.width), order="F")
        for r in range(self.p):
            idx = self.u_by_rank[r]
            if idx.size:
                self.u[idx, :] = parts[r]
        self._u_contrib = None
        self._packets = None

    def _binexch_allgather(self, contrib: np.ndarray) -> dict[int, np.ndarray]:
        """Binary-exchange allgather of per-rank U contributions.

        Non-power-of-two sizes fold the surplus ranks onto the low ranks
        before the ``log2`` doubling rounds and unfold afterwards, exactly
        like the recursive-doubling allreduce.
        """
        comm, p, rank = self.comm, self.p, self.myrow
        acc: dict[int, np.ndarray] = {rank: contrib}
        pof2 = 1
        while pof2 * 2 <= p:
            pof2 *= 2
        rem = p - pof2
        if rank >= pof2:
            comm.send(acc, rank - pof2, tag=_BINEXCH_TAG)
        else:
            if rank < rem:
                acc.update(comm.recv(rank + pof2, tag=_BINEXCH_TAG))
            mask = 1
            while mask < pof2:
                partner = rank ^ mask
                comm.send(acc, partner, tag=_BINEXCH_TAG)
                acc.update(comm.recv(partner, tag=_BINEXCH_TAG))
                mask <<= 1
        # unfold to the surplus ranks
        if rank < rem:
            comm.send(acc, rank + pof2, tag=_BINEXCH_TAG)
        elif rank >= pof2:
            acc = comm.recv(rank - pof2, tag=_BINEXCH_TAG)
        return acc

    def scatter_back(self) -> None:
        """Write received rows into their local destinations."""
        if self._incoming is None:
            raise RuntimeError("scatter_back() before communicate()")
        idx = self.out_by_rank[self.myrow]
        if idx.size:
            rows = self._local_rows(self.plan.out_dest[idx])
            self.mat.a[np.ix_(rows, np.arange(self.col_lo, self.col_hi))] = (
                self._incoming
            )
        self._incoming = None

    def store_u(self, u_final: np.ndarray, offset: int = 0) -> None:
        """Block-row owner stores the (post-DTRSM) U into the block rows.

        ``u_final`` may cover only part of the section: its columns start
        ``offset`` columns into it.
        """
        if self.myrow != self.block_owner:
            return
        plan = self.plan
        rows = self._local_rows(plan.j0 + np.arange(plan.jb))
        col0 = self.col_lo + offset
        cols = np.arange(col0, col0 + u_final.shape[1])
        self.mat.a[np.ix_(rows, cols)] = u_final
