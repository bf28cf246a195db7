"""The HPL residual acceptance test.

HPL accepts a solve when::

    ||A x - b||_oo
    ------------------------------------------  <  threshold (16.0)
    eps * (||A||_oo ||x||_oo + ||b||_oo) * n

computed against the *original* matrix.  Because the generator is
jump-ahead reproducible, each rank regenerates its original local piece
instead of keeping a copy -- the same trick HPL itself uses -- so
verification costs no extra memory.  The regeneration is the very call
that built the piece, :func:`~repro.hpl.rng.local_block`, over the local
A columns plus column ``n`` (every rank needs ``b`` on its rows).

The matrix-vector product is distributed: each rank multiplies its local
block by the matching slice of ``x``, partial products are summed across
process rows, and the infinity norms are max-reduced grid-wide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import DistMatrix
from . import rng

#: HPL's pass/fail threshold on the scaled residual.
THRESHOLD = 16.0


@dataclass(frozen=True)
class Verification:
    """Result of the residual test (identical on every rank)."""

    resid: float
    norm_a: float
    norm_b: float
    norm_x: float
    passed: bool


def _regenerate_local(mat: DistMatrix) -> np.ndarray:
    """This rank's original rows of ``[A | b]``: its local A columns, then
    the RHS (global column ``n``) whether or not this rank owns it."""
    ncols = int(np.searchsorted(mat.col_pos, mat.n))
    cols = np.append(mat.col_pos[:ncols], mat.n)
    return rng.local_block(mat.seed, mat.n, mat.row_pos, cols)


def verify(mat: DistMatrix, x: np.ndarray) -> Verification:
    """Run the acceptance test; collective over the grid communicator."""
    grid, n = mat.grid, mat.n
    comm = grid.comm
    aug = _regenerate_local(mat)
    orig, b_rows = aug[:, :-1], aug[:, -1]
    ncols = orig.shape[1]
    x_local = x[mat.col_pos[:ncols]]

    # r = A x - b on the local rows: sum partials across the process row.
    partial = orig @ x_local if ncols else np.zeros(mat.mloc)
    row_sum = grid.row_comm.allreduce(partial, op="sum")
    resid_local = float(np.max(np.abs(row_sum - b_rows))) if mat.mloc else 0.0

    # ||A||_oo: local row sums -> sum across the row -> max grid-wide.
    local_rowsum = np.abs(orig).sum(axis=1) if ncols else np.zeros(mat.mloc)
    full_rowsum = grid.row_comm.allreduce(local_rowsum, op="sum")
    norm_a_local = float(np.max(full_rowsum)) if mat.mloc else 0.0

    norm_b_local = float(np.max(np.abs(b_rows))) if mat.mloc else 0.0
    resid_inf = comm.allreduce(resid_local, op="max")
    norm_a = comm.allreduce(norm_a_local, op="max")
    norm_b = comm.allreduce(norm_b_local, op="max")
    norm_x = float(np.max(np.abs(x)))

    eps = float(np.finfo(np.float64).eps)
    denom = eps * (norm_a * norm_x + norm_b) * n
    resid = resid_inf / denom if denom > 0 else np.inf
    return Verification(
        resid=resid,
        norm_a=norm_a,
        norm_b=norm_b,
        norm_x=norm_x,
        passed=bool(resid < THRESHOLD),
    )
