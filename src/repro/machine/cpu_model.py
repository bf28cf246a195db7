"""CPU panel-factorization performance model (the paper's Figure 5).

Models the tiled multi-threaded FACT of Section III.A factoring an
``M x NB`` panel with ``T`` threads:

* **Work**: ``M NB^2 - NB^3/3`` flops, executed at the per-core BLIS DGEMM
  rate discounted by a small-k efficiency (the recursion's inner updates
  have k <= NB) and by a cache factor when the working set spills L3.
* **Parallelism**: tiles are whole ``NB``-row blocks, so at most
  ``ceil(M / NB)`` threads can have work; threads beyond that idle -- this
  is what bends the high-thread curves down at small M in Fig. 5.  The
  first tile's triangle work is main-thread-only; we charge it as a serial
  ``NB^3/3`` term.
* **Synchronization**: each of the NB columns performs a tree reduction
  over threads for the pivot (``ceil(log2 T)`` hops) plus a row
  swap/broadcast of ``NB`` doubles through shared cache.

The model is intentionally few-parameter; the paper's Fig. 5 claims we
must reproduce are *shape* claims: multi-threading helps dramatically,
more cores keep helping at large M, and even small panels benefit from
many cores.
"""

from __future__ import annotations

import math

import numpy as np

from ..blas.kernels import flops_getrf
from .spec import CPUSpec

#: Efficiency of the recursion's small-k GEMMs relative to peak DGEMM.
#: Calibrated (with the triangle term below) against the paper's overall
#: 153-TFLOPS single-node score, whose tail regime is FACT-bound.
_PANEL_BLAS_EFF = 0.42
#: Serial (main-thread-only) fraction: the recursion triangle + pivot logic.
_TRIANGLE_EFF = 0.30


def fact_seconds_array(
    cpu: CPUSpec, m: np.ndarray, nb: np.ndarray, nthreads: int
) -> np.ndarray:
    """Wall seconds to factor ``M x NB`` panels with ``T`` threads.

    Elementwise over aligned ``m``/``nb`` arrays (scalars are length-1
    views).  Every row must describe a valid panel (``m >= nb >= 1``);
    callers mask out iterations with no factorization before calling.
    """
    if nthreads < 1:
        raise ValueError(f"nthreads must be >= 1, got {nthreads}")
    m = np.asarray(m, dtype=np.float64)
    nb = np.asarray(nb, dtype=np.float64)
    if np.any(m < nb) or np.any(nb < 1):
        raise ValueError("every panel must be at least NB tall: m >= nb >= 1")
    ntiles = np.ceil(m / nb)
    t_eff = np.minimum(float(nthreads), ntiles)
    core_rate = cpu.core_dgemm_gflops * 1e9

    # Cache factor: the panel working set versus L3 (the paper notes the
    # FACT working set typically stays resident in the 64-core socket's
    # L3).  Once it spills, the blocked recursion streams the panel from
    # DDR at an arithmetic intensity of roughly NBMIN/8 ~ 2 flops/byte,
    # capping the achievable rate at ~2x the memory bandwidth.
    working_set = 8.0 * m * nb
    l3 = cpu.l3_mb * 1e6
    bw_rate = cpu.mem_bw_gbs * 1e9 * 2.0  # flops/s at 2 flops/byte
    compute_rate = t_eff * core_rate * _PANEL_BLAS_EFF
    cache = np.where(
        working_set <= l3, 1.0, np.minimum(1.0, bw_rate / compute_rate)
    )

    # flops_getrf(x, nb) = x nb^2 - nb^3/3, spelled out over arrays.
    tri = nb * nb * nb - nb**3 / 3.0
    # Parallel bulk work (trailing updates across tiles).
    bulk = (m * nb * nb - nb**3 / 3.0) - tri
    t_bulk = bulk / (t_eff * core_rate * _PANEL_BLAS_EFF * cache)
    # Serial triangle on the main thread.
    t_tri = tri / (core_rate * _TRIANGLE_EFF)
    # Per-column synchronization: pivot tree reduce + row exchange.
    hops = math.ceil(math.log2(nthreads)) if nthreads > 1 else 0
    t_sync = nb * (
        cpu.col_overhead_s
        + hops * cpu.sync_latency_s
        + 8.0 * nb / (cpu.pivot_row_bw_gbs * 1e9)
    )
    return t_bulk + t_tri + t_sync


def fact_seconds(cpu: CPUSpec, m: int, nb: int, nthreads: int) -> float:
    """Scalar :func:`fact_seconds_array`."""
    return float(fact_seconds_array(cpu, m, nb, nthreads))


def fact_gflops(cpu: CPUSpec, m: int, nb: int, nthreads: int) -> float:
    """Achieved GFLOP/s of the panel factorization (Fig. 5's y-axis)."""
    return flops_getrf(m, nb) / fact_seconds(cpu, m, nb, nthreads) / 1e9
