"""DGEMM performance model for one GPU device.

HPL's update-phase DGEMMs have shape ``(m x n) += (m x k) @ (k x n)`` with
``k = NB``; their efficiency saturates in every extent.  We model the
achieved rate as a separable product of saturation terms::

    rate(m, n, k) = peak * eff_max * s(k; k_half) * s(min(m, n); mn_half)

with ``s(x; h) = x / (x + h)``.  The knees are calibrated so that NB=512
trailing updates on an MI250X GCD reach the paper's 24.5 TFLOPS (49 per
module), while small-``k`` or skinny updates degrade -- which is exactly
the trade the paper describes when choosing NB ("large enough that DGEMM
reaches a high percentage of peak, as small as possible for overlap").
"""

from __future__ import annotations

import numpy as np

from .spec import GPUSpec


def dgemm_efficiency_array(
    gpu: GPUSpec, m: np.ndarray, n: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Fraction of matrix-core peak achieved for ``m x n x k`` DGEMMs.

    Elementwise over aligned extent arrays (scalars are length-1 views);
    empty products (any extent ``<= 0``) have efficiency 0.
    """
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    mn = np.minimum(m, n)
    eff = (
        gpu.gemm_eff_max
        * (k / (k + gpu.gemm_k_half))
        * (mn / (mn + gpu.gemm_mn_half))
    )
    return np.where(np.minimum(mn, k) > 0, eff, 0.0)


def dgemm_tflops(gpu: GPUSpec, m: int, n: int, k: int) -> float:
    """Achieved TFLOP/s for an ``m x n x k`` DGEMM on one device."""
    return gpu.peak_fp64_matrix_tflops * float(dgemm_efficiency_array(gpu, m, n, k))


def dgemm_seconds_array(
    gpu: GPUSpec, m: np.ndarray, n: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Wall time of ``m x n x k`` DGEMMs, including launch latency.

    The efficiency curve is evaluated once over the whole batch (the
    ledger passes every iteration of a run at once).
    """
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    mask = np.minimum(np.minimum(m, n), k) > 0
    rate = gpu.peak_fp64_matrix_tflops * dgemm_efficiency_array(gpu, m, n, k) * 1e12
    rate = np.where(mask, rate, 1.0)  # dummy divisor on masked lanes
    return np.where(mask, gpu.kernel_latency_s + 2.0 * m * n * k / rate, 0.0)


def dgemm_seconds(gpu: GPUSpec, m: int, n: int, k: int) -> float:
    """Scalar :func:`dgemm_seconds_array`."""
    return float(dgemm_seconds_array(gpu, m, n, k))


def dtrsm_seconds_array(gpu: GPUSpec, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Triangular solves ``(m x m) \\ (m x n)``: modeled as a DGEMM of the
    same flop volume at the spec's ``trsm_eff`` relative efficiency
    (triangular kernels trail square ones in rocBLAS)."""
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    rate = (
        gpu.trsm_eff
        * (gpu.peak_fp64_matrix_tflops * dgemm_efficiency_array(gpu, m, n, m))
        * 1e12
    )
    safe = np.where(rate > 0, rate, 1.0)
    out = np.where(
        rate > 0, gpu.kernel_latency_s + m * m * n / safe, gpu.kernel_latency_s
    )
    return np.where((m > 0) & (n > 0), out, 0.0)


def rowcopy_seconds_array(gpu: GPUSpec, nbytes: np.ndarray) -> np.ndarray:
    """Gather/scatter kernels moving ``nbytes`` of rows (read+write).

    Row accesses are strided in the column-major local matrix, so the
    effective bandwidth is the spec's ``rowswap_bw_gbs``, not streaming
    HBM bandwidth.
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    return np.where(
        nbytes > 0,
        gpu.kernel_latency_s + 2.0 * nbytes / (gpu.rowswap_bw_gbs * 1e9),
        0.0,
    )
