"""HPL-style jump-ahead linear congruential generator.

Netlib HPL generates the distributed matrix with a 64-bit LCG whose
crucial property is O(log k) *jump-ahead*: any process can position the
stream at the global element index it owns without generating the elements
in between.  This makes the global matrix a pure function of ``(n, seed)``
-- independent of the process grid -- which we rely on throughout the test
suite to compare runs on different grids against a serial ground truth.

The generator is ``x_{k+1} = (a x_k + c) mod 2^64`` with the familiar
MMIX/PCG multiplier.  Jumping ``k`` steps composes the affine map with
itself ``k`` times by binary doubling: ``x_{n+k} = A_k x_n + C_k`` where
``A_k = a^k`` and ``C_k = c (a^k - 1)/(a - 1)``, all mod ``2^64``.

Values map to doubles in ``[-0.5, 0.5)`` using the top 53 bits of state,
matching HPL's centered uniform distribution (which keeps the expected
pivot growth mild and the matrix comfortably nonsingular).
"""

from __future__ import annotations

import numpy as np

#: LCG multiplier (MMIX / PCG64 multiplier; HPL uses the same construction
#: split into two 32-bit halves).
MULT = 6364136223846793005
#: LCG increment.
INCR = 1
_MASK = (1 << 64) - 1


def lcg_jump(k: int) -> tuple[int, int]:
    """Affine coefficients ``(A, C)`` with ``x_{n+k} = A x_n + C (mod 2^64)``.

    Computed by binary doubling of the map composition, O(log k).
    """
    if k < 0:
        raise ValueError(f"jump distance must be >= 0, got {k}")
    a_acc, c_acc = 1, 0  # identity map
    a_pow, c_pow = MULT, INCR  # the single-step map
    while k:
        if k & 1:
            # compose: apply (a_pow, c_pow) after (a_acc, c_acc)
            a_acc = (a_pow * a_acc) & _MASK
            c_acc = (a_pow * c_acc + c_pow) & _MASK
        # double: (a_pow, c_pow) o (a_pow, c_pow)
        c_pow = (a_pow * c_pow + c_pow) & _MASK
        a_pow = (a_pow * a_pow) & _MASK
        k >>= 1
    return a_acc, c_acc


def _initial_state(seed: int) -> int:
    """Mix the user seed into a full-width nonzero starting state."""
    x = (seed & _MASK) ^ 0x9E3779B97F4A7C15
    # one step so that nearby seeds decorrelate immediately
    return (MULT * x + INCR) & _MASK


def state_at(seed: int, k: int) -> int:
    """LCG state at stream position ``k`` (position 0 = initial state)."""
    a, c = lcg_jump(k)
    return (a * _initial_state(seed) + c) & _MASK


def _affine_table(mult: int, incr: int, count: int):
    """``(A_t, C_t)``, ``t < count``, of the map ``x -> mult x + incr``:
    a cumulative product and sum in wrapping uint64 arithmetic."""
    a_pow = np.ones(count, dtype=np.uint64)
    powers = np.full(max(count - 1, 0), mult, dtype=np.uint64)
    np.cumprod(powers, out=a_pow[1:])
    c_sum = np.zeros(count, dtype=np.uint64)
    np.cumsum(a_pow[:-1], out=c_sum[1:])
    return a_pow, c_sum * np.uint64(incr)


def _to_unit(states: np.ndarray) -> np.ndarray:
    """Doubles in ``[-0.5, 0.5)`` from the top 53 bits of each state."""
    return (states >> np.uint64(11)) * 2.0**-53 - 0.5


def random_values(seed: int, start: int, count: int) -> np.ndarray:
    """``count`` doubles in ``[-0.5, 0.5)`` at stream positions
    ``start, start+1, ...``: ``x_{start+t} = A_t x_start + C_t``."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    a_pow, c_sum = _affine_table(MULT, INCR, count)
    return _to_unit(a_pow * np.uint64(state_at(seed, start)) + c_sum)


#: uint64 elements per array pass of :func:`local_block` (512 KiB).
_PASS_ELEMS = 1 << 16


def local_block(seed: int, n: int, rows, cols) -> np.ndarray:
    """Elements ``(r, c)`` -- stream position ``c*n + r`` -- of the
    ``n``-row column-major stream matrix, for global ``rows`` x ``cols``.

    The state at ``(r, c)`` is ``A_r S_c + C_r``: a per-row table of
    ``r``-step maps applied to the column start ``S_c``, which is itself
    an LCG (``S_{c+1} = A_n S_c + C_n``), so no element costs a jump.
    The ``(len(rows), len(cols))`` Fortran-ordered result is filled one
    block of columns per array pass, so the temporaries beside it are a
    few ``max(len(rows), _PASS_ELEMS)``-element arrays, never a matrix.
    """
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    out = np.empty((rows.size, cols.size), order="F")
    if not out.size:
        return out
    a_row, c_row = _affine_table(MULT, INCR, rows.max() + 1)
    a_row, c_row = a_row[rows], c_row[rows]
    a_col, c_col = _affine_table(*lcg_jump(n), cols.max() + 1)
    starts = a_col[cols] * np.uint64(_initial_state(seed)) + c_col[cols]
    step = max(1, _PASS_ELEMS // rows.size)
    for j in range(0, cols.size, step):
        # (columns, rows) C-ordered: its transpose matches out's layout
        states = np.multiply.outer(starts[j : j + step], a_row) + c_row
        out[:, j : j + step] = _to_unit(states).T
    return out
