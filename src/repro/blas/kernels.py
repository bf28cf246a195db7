"""Flop-accounted dense kernels.

All kernels operate *in place* on the output argument wherever the math
allows, following the "in-place operations, views not copies" idiom: the HPL
update phase works on column slices of the local Fortran-ordered matrix, and
these slices must be mutated, not replaced.

Flop accounting is per-thread (:class:`_FlopCounter`): every rank of an SPMD
job and every panel-factorization worker accumulates into its own counter,
and the HPL driver samples/resets it around each phase.  The counts use the
standard LAPACK conventions (a multiply-add is 2 flops).

``scipy.linalg`` is imported by the first triangular solve (:func:`lapack`),
not by this module: the simulator reaches here for the flop formulas and
:data:`FLOPS` only, and never pays for loading LAPACK.
"""

from __future__ import annotations

import threading

import numpy as np


class _FlopCounter(threading.local):
    """Per-thread flop accumulator."""

    def __init__(self) -> None:
        self.count = 0.0

    def add(self, flops: float) -> None:
        self.count += flops

    def take(self) -> float:
        """Return the current count and reset it."""
        value = self.count
        self.count = 0.0
        return value


#: Global per-thread flop counter used by every kernel in this module.
FLOPS = _FlopCounter()


def lapack():
    """``scipy.linalg``, imported on the first call."""
    import scipy.linalg

    return scipy.linalg


# ----------------------------------------------------------------------
# Flop-count formulas (shared with the analytic performance ledger)
# ----------------------------------------------------------------------
def flops_dgemm(m: int, n: int, k: int) -> float:
    """Flops of ``C (m x n) += A (m x k) @ B (k x n)``."""
    return 2.0 * m * n * k


def flops_trsm(m: int, n: int) -> float:
    """Flops of a triangular solve with an ``m x m`` triangle and ``n`` RHS."""
    return float(m) * m * n


def flops_getrf(m: int, n: int) -> float:
    """Flops of LU-factoring an ``m x n`` (``m >= n``) matrix.

    The classic ``mn^2 - n^3/3`` leading-order count (for ``m = n`` this is
    the familiar ``2/3 n^3``).
    """
    return float(m) * n * n - (float(n) ** 3) / 3.0


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def dgemm_update(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float = -1.0, beta: float = 1.0
) -> None:
    """``C <- beta*C + alpha * A @ B`` in place.

    This is HPL's workhorse: the trailing update calls it with
    ``alpha=-1, beta=1`` (a rank-``NB`` subtraction).
    """
    m, n = c.shape
    k = a.shape[1]
    if a.shape[0] != m or b.shape != (k, n):
        raise ValueError(f"dgemm shape mismatch: C{c.shape} A{a.shape} B{b.shape}")
    if m == 0 or n == 0:
        return
    FLOPS.add(flops_dgemm(m, n, k))
    if k == 0:
        if beta != 1.0:
            c *= beta
        return
    prod = a @ b
    if beta == 1.0 and alpha == -1.0:
        c -= prod
    elif beta == 1.0 and alpha == 1.0:
        c += prod
    else:
        c *= beta
        c += alpha * prod


def dger_update(a: np.ndarray, x: np.ndarray, y: np.ndarray, alpha: float = -1.0) -> None:
    """Rank-1 update ``A <- A + alpha * x y^T`` in place."""
    m, n = a.shape
    if x.shape != (m,) or y.shape != (n,):
        raise ValueError(f"dger shape mismatch: A{a.shape} x{x.shape} y{y.shape}")
    if m == 0 or n == 0:
        return
    FLOPS.add(2.0 * m * n)
    a += alpha * x[:, None] * y[None, :]


def dscal_inplace(x: np.ndarray, alpha: float) -> None:
    """``x <- alpha * x`` in place."""
    FLOPS.add(float(x.size))
    x *= alpha


def idamax(x: np.ndarray) -> int:
    """Index of the entry of largest magnitude (first on ties).

    Raises ``ValueError`` on empty input, like BLAS's undefined behaviour
    made loud.
    """
    if x.size == 0:
        raise ValueError("idamax of empty vector")
    return int(np.argmax(np.abs(x)))


def unit_lower_solve_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``B <- L^{-1} B`` in place, ``L`` unit lower triangular.

    Only the strictly-lower part of ``l`` is referenced, so the caller may
    pass the packed panel triangle (whose upper part holds U).
    """
    m = l.shape[0]
    if l.shape != (m, m) or b.shape[0] != m:
        raise ValueError(f"trsm shape mismatch: L{l.shape} B{b.shape}")
    if m == 0 or b.size == 0:
        return
    FLOPS.add(flops_trsm(m, b.shape[1] if b.ndim == 2 else 1))
    out = lapack().solve_triangular(
        l, b, lower=True, unit_diagonal=True, check_finite=False
    )
    b[...] = out


def upper_solve(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``U^{-1} b`` for an upper-triangular ``U`` (not in place)."""
    m = u.shape[0]
    if u.shape != (m, m) or b.shape[0] != m:
        raise ValueError(f"trsv shape mismatch: U{u.shape} b{b.shape}")
    if m == 0:
        return b.copy()
    FLOPS.add(flops_trsm(m, b.shape[1] if b.ndim == 2 else 1))
    return lapack().solve_triangular(u, b, lower=False, check_finite=False)
