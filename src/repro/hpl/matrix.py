"""The distributed augmented matrix ``[A | b]``.

The global ``n x (n+1)`` augmented system is a pure function of
``(n, seed)``: element ``(i, j)`` is stream element ``j*n + i`` of the
jump-ahead LCG (column-major enumeration, the RHS being column ``n``).
Each rank materializes exactly its block-cyclic local piece with one
:func:`~repro.hpl.rng.local_block` call: a per-row table of ``r``-step
maps times a per-column table of column-start states, so the cost is one
array pass per block of local columns and nothing per element.  The
piece is stored Fortran-ordered so that column slices -- which is all HPL
ever takes -- are contiguous.
"""

from __future__ import annotations

import numpy as np

from ..grid.block_cyclic import local_indices, num_local_before, numroc
from ..grid.process_grid import ProcessGrid
from . import rng


def generate_global(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Serial reference: the full ``(A, b)`` for small-n ground truth."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    aug = rng.local_block(seed, n, np.arange(n), np.arange(n + 1))
    return np.asfortranarray(aug[:, :n]), aug[:, n].copy()


class DistMatrix:
    """One rank's local piece of the augmented system.

    Attributes:
        grid: The process grid this piece lives on.
        n: Global matrix dimension.
        nb: Distribution blocking factor.
        seed: Generator seed.
        a: Local storage, ``(mloc, nloc_aug)`` Fortran-ordered; column
            ``nloc_aug - 1`` holds this rank's piece of ``b`` iff this
            rank's grid column owns global column ``n``.
        row_pos: Global row index of each local row (ascending).
        col_pos: Global column index of each local column (ascending,
            over the augmented ``n+1`` column domain).
    """

    def __init__(self, grid: ProcessGrid, n: int, nb: int, seed: int = 42):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if nb < 1:
            raise ValueError(f"nb must be >= 1, got {nb}")
        self.grid = grid
        self.n = n
        self.nb = nb
        self.seed = seed
        self.mloc = numroc(n, nb, grid.myrow, grid.p)
        self.nloc_aug = numroc(n + 1, nb, grid.mycol, grid.q)
        self.row_pos = local_indices(n, nb, grid.myrow, grid.p)
        self.col_pos = local_indices(n + 1, nb, grid.mycol, grid.q)
        self.a = rng.local_block(seed, n, self.row_pos, self.col_pos)

    # ------------------------------------------------------------------
    # Index helpers bound to this matrix's distribution
    # ------------------------------------------------------------------
    def local_row_of(self, gpos: int) -> int:
        """Local row index of global row ``gpos`` (must be locally owned)."""
        return num_local_before(gpos, self.nb, self.grid.myrow, self.grid.p)

    def local_rows_from(self, gpos: int) -> int:
        """First local row whose global position is ``>= gpos``."""
        return num_local_before(gpos, self.nb, self.grid.myrow, self.grid.p)

    def local_cols_from(self, gcol: int) -> int:
        """First local column whose global position is ``>= gcol``."""
        return num_local_before(gcol, self.nb, self.grid.mycol, self.grid.q)

    # ------------------------------------------------------------------
    # Test/debug support
    # ------------------------------------------------------------------
    def gather_global(self) -> np.ndarray | None:
        """Assemble the full augmented matrix on grid rank 0 (tests only)."""
        payload = (self.row_pos, self.col_pos, self.a)
        pieces = self.grid.comm.gather(payload, root=0)
        if pieces is None:
            return None
        full = np.zeros((self.n, self.n + 1), order="F")
        for rows, cols, block in pieces:
            full[np.ix_(rows, cols)] = block
        return full
