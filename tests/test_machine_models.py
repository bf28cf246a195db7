"""Hardware model laws and the paper's calibration anchors."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import BcastVariant
from repro.errors import ConfigError
from repro.machine import (
    CommModel,
    CPUSpec,
    ClusterSpec,
    GPUSpec,
    LinkSpec,
    NodeSpec,
    crusher_cluster,
    crusher_node,
    dgemm_seconds,
    dgemm_tflops,
    fact_gflops,
    fact_seconds,
)
from repro.machine.comm_model import GridTopology
from repro.machine.cpu_model import fact_seconds_array
from repro.machine.gemm_model import (
    dgemm_seconds_array,
    dtrsm_seconds_array,
    rowcopy_seconds_array,
)
from repro.machine.transfer_model import (
    panel_roundtrip_seconds,
    transfer_seconds,
    transfer_seconds_array,
)


class TestSpecs:
    def test_crusher_node_inventory(self):
        node = crusher_node()
        assert node.gpus == 8  # 4 MI250X = 8 GCDs
        assert node.cpu.cores == 64 and node.cpu.ccds == 8
        assert node.hbm_total_gb == 512.0

    def test_fits_n(self):
        node = crusher_node()
        assert node.fits_n(240_000)
        assert not node.fits_n(260_000)  # 256k fills HBM only with workspace

    def test_cluster_max_n_scales_sqrt(self):
        c1, c4 = crusher_cluster(1), crusher_cluster(4)
        assert c4.max_n() == pytest.approx(2 * c1.max_n(), rel=0.01)

    def test_link_alpha_beta(self):
        link = LinkSpec(bandwidth_gbs=10.0, latency_s=1e-6)
        assert link.seconds(0) == 1e-6
        assert link.seconds(10e9) == pytest.approx(1.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GPUSpec(peak_fp64_matrix_tflops=0)
        with pytest.raises(ConfigError):
            CPUSpec(cores=10, ccds=3)
        with pytest.raises(ConfigError):
            NodeSpec(gpus=0)
        with pytest.raises(ConfigError):
            ClusterSpec(nnodes=0)


class TestGemmModel:
    def test_paper_calibration_anchor(self):
        """NB=512 trailing DGEMMs reach ~24.5 TFLOPS per GCD (49/MI250X)."""
        gpu = crusher_node().gpu
        rate = dgemm_tflops(gpu, 60_000, 120_000, 512)
        assert rate == pytest.approx(24.5, abs=0.3)

    def test_small_nb_degrades(self):
        """The NB trade-off the paper describes: small k loses efficiency."""
        gpu = crusher_node().gpu
        assert dgemm_tflops(gpu, 60_000, 60_000, 64) < 0.7 * dgemm_tflops(
            gpu, 60_000, 60_000, 512
        )

    @given(st.integers(1, 4000), st.integers(1, 4000), st.integers(1, 512))
    def test_monotone_in_extents(self, m, n, k):
        gpu = GPUSpec()
        assert dgemm_tflops(gpu, m + 1, n, k) >= dgemm_tflops(gpu, m, n, k)
        assert dgemm_tflops(gpu, m, n, k + 1) >= dgemm_tflops(gpu, m, n, k)

    def test_seconds_includes_launch_latency(self):
        gpu = GPUSpec()
        assert dgemm_seconds(gpu, 1, 1, 1) >= gpu.kernel_latency_s

    def test_zero_extent_is_free(self):
        gpu = GPUSpec()
        assert dgemm_seconds(gpu, 0, 10, 10) == 0.0
        assert dtrsm_seconds_array(gpu, 0, 10) == 0.0
        assert rowcopy_seconds_array(gpu, 0) == 0.0

    def test_dtrsm_slower_than_dgemm_per_flop(self):
        gpu = GPUSpec()
        t_trsm = dtrsm_seconds_array(gpu, 512, 10_000)
        flops = 512 * 512 * 10_000
        t_gemm_equiv = flops / (dgemm_tflops(gpu, 512, 10_000, 512) * 1e12)
        assert t_trsm > t_gemm_equiv


class TestCpuModel:
    def test_fig5_threads_help_at_large_m(self):
        cpu = crusher_node().cpu
        g1 = fact_gflops(cpu, 64 * 512, 512, 1)
        g8 = fact_gflops(cpu, 64 * 512, 512, 8)
        g64 = fact_gflops(cpu, 64 * 512, 512, 64)
        assert g8 > 3 * g1
        assert g64 > 1.5 * g8

    def test_fig5_small_m_limited_by_tiles(self):
        """With few tiles, extra threads cannot help (round-robin tiles)."""
        cpu = crusher_node().cpu
        g4 = fact_gflops(cpu, 4 * 512, 512, 4)
        g64 = fact_gflops(cpu, 4 * 512, 512, 64)
        assert g64 <= g4 * 1.01  # only sync costs differ

    def test_fig5_monotone_in_m(self):
        cpu = crusher_node().cpu
        rates = [fact_gflops(cpu, mult * 512, 512, 16) for mult in (2, 8, 32, 128)]
        assert rates == sorted(rates)

    def test_cache_spill_penalty(self):
        """Identical panel and threads: a socket whose L3 holds the working
        set beats one where it spills to DDR (the paper's L3-residency
        point), and the penalty vanishes when bandwidth is ample."""
        import dataclasses

        spill_cpu = crusher_node().cpu  # 256 MB L3
        big_l3 = dataclasses.replace(spill_cpu, l3_mb=4096.0)
        m = 512 * 512  # ~1 GB working set
        assert fact_gflops(spill_cpu, m, 512, 64) < fact_gflops(big_l3, m, 512, 64)
        fat_pipe = dataclasses.replace(spill_cpu, mem_bw_gbs=5000.0)
        assert fact_gflops(fat_pipe, m, 512, 64) == pytest.approx(
            fact_gflops(big_l3, m, 512, 64)
        )

    def test_validation(self):
        cpu = CPUSpec()
        with pytest.raises(ValueError):
            fact_seconds(cpu, 100, 512, 4)
        with pytest.raises(ValueError):
            fact_seconds(cpu, 1024, 512, 0)


class TestTopology:
    def test_node_placement_tiles_grid(self):
        topo = GridTopology(p=4, q=4, pl=2, ql=2)
        assert topo.nnodes == 4
        assert topo.node_of(0, 0) == topo.node_of(1, 1) == 0
        assert topo.node_of(0, 2) == 1
        assert topo.node_of(2, 0) == 2
        assert topo.node_of(3, 3) == 3

    def test_bad_tiling_rejected(self):
        with pytest.raises(ConfigError):
            GridTopology(p=4, q=4, pl=3, ql=2)

    def test_members(self):
        topo = GridTopology(p=3, q=2, pl=3, ql=2)
        assert topo.col_members(1) == [(0, 1), (1, 1), (2, 1)]
        assert topo.row_members(2) == [(2, 0), (2, 1)]

    def test_every_row_and_column_has_the_same_link_structure(self):
        """The ledger prices collectives on row 0 / column 0 for all."""
        topo = GridTopology(p=6, q=4, pl=3, ql=2)
        for a in range(6):
            for b in range(4):
                for i in range(6):
                    assert topo.same_node((a, b), (i, b)) == topo.same_node((a, 0), (i, 0))
                for j in range(4):
                    assert topo.same_node((a, b), (a, j)) == topo.same_node((0, b), (0, j))


class TestCommModel:
    def _model(self, p=4, q=4, pl=2, ql=2, nnodes=4):
        return CommModel(crusher_cluster(nnodes), GridTopology(p, q, pl, ql))

    def test_on_node_uses_fabric_off_node_uses_nic(self):
        cm = self._model()
        on = cm.p2p_seconds((0, 0), (1, 1), 1e6)
        off = cm.p2p_seconds((0, 0), (0, 2), 1e6)
        assert off > on

    def test_single_rank_collectives_free(self):
        cm = self._model(p=1, q=1, pl=1, ql=1, nnodes=1)
        members = [(0, 0)]
        assert cm.allreduce_seconds_array(members, 100) == 0.0
        assert cm.allgatherv_seconds_array(members, 100) == 0.0
        assert cm.bcast_seconds_array(members, 100, BcastVariant.ONE_RING) == 0.0

    def test_allreduce_log_rounds(self):
        cm = self._model(p=4, q=1, pl=4, ql=1, nnodes=1)
        t2 = cm.allreduce_seconds_array([(r, 0) for r in range(2)], 1000)
        t4 = cm.allreduce_seconds_array([(r, 0) for r in range(4)], 1000)
        assert t4 == pytest.approx(2 * t2)

    def test_bcast_ring_cheaper_than_binomial_for_bulk(self):
        """Steady-state ring LBCAST beats the tree for large panels."""
        cm = self._model(p=1, q=8, pl=1, ql=8, nnodes=1)
        members = [(0, c) for c in range(8)]
        ring = cm.bcast_seconds_array(members, 1e8, BcastVariant.ONE_RING_M)
        tree = cm.bcast_seconds_array(members, 1e8, BcastVariant.BINOMIAL)
        assert ring < tree

    def test_blong_beats_plain_ring_for_huge_payloads(self):
        cm = self._model(p=1, q=8, pl=1, ql=8, nnodes=1)
        members = [(0, c) for c in range(8)]
        blong = cm.bcast_seconds_array(members, 1e9, BcastVariant.BLONG)
        ring = cm.bcast_seconds_array(members, 1e9, BcastVariant.ONE_RING)
        assert blong < ring

    def test_multi_node_column_pays_nic(self):
        on_node = self._model(p=4, q=2, pl=4, ql=2, nnodes=1)
        multi = self._model(p=8, q=2, pl=4, ql=2, nnodes=2)
        col_on = on_node.allgatherv_seconds_array(on_node.topo.col_members(0), 1e7)
        col_multi = multi.allgatherv_seconds_array(multi.topo.col_members(0), 1e7)
        assert col_multi > col_on

    def test_grid_larger_than_cluster_rejected(self):
        with pytest.raises(ConfigError):
            CommModel(crusher_cluster(1), GridTopology(8, 2, 4, 2))


class TestTransferModel:
    def test_roundtrip(self):
        node = crusher_node()
        one_way = transfer_seconds(node.d2h, 8.0 * 64_000 * 512)
        assert panel_roundtrip_seconds(node, 64_000, 512) == pytest.approx(
            2 * one_way
        )

    def test_zero_bytes_free(self):
        node = crusher_node()
        assert transfer_seconds(node.d2h, 0) == 0.0


def _elementwise(fn, *columns):
    """``fn`` prices row ``i`` the same alone (scalars, length-1 arrays)
    as inside the batch, whatever masked lanes sit beside it."""
    batch = fn(*(np.array(c) for c in columns))
    for i, row in enumerate(zip(*columns)):
        alone = float(fn(*row))
        assert alone == float(fn(*(np.array([v]) for v in row))[0])
        assert alone == float(batch[i])


class TestScalarBatchConsistency:
    @given(st.lists(st.tuples(st.integers(-1, 5000), st.integers(-1, 5000),
                              st.integers(1, 600)), min_size=2, max_size=6))
    def test_every_pricing_entry_point_is_elementwise(self, rows):
        """The array functions are the only pricing bodies and a scalar is
        a length-1 view of them, so the two must agree to the bit."""
        m, n, k = (list(col) for col in zip(*rows))
        nbytes = [8.0 * a * b for a, b in zip(m, n)]
        gpu, node = GPUSpec(), crusher_node()
        _elementwise(partial(dgemm_seconds_array, gpu), m, n, k)
        _elementwise(partial(dtrsm_seconds_array, gpu), m, n)
        _elementwise(partial(rowcopy_seconds_array, gpu), nbytes)
        _elementwise(partial(transfer_seconds_array, node.d2h), nbytes)
        tall = [kk * max(a, 1) for kk, a in zip(k, m)]
        for threads in (1, 7, 64):
            _elementwise(
                lambda m, nb: fact_seconds_array(node.cpu, m, nb, threads), tall, k
            )
        cm = CommModel(crusher_cluster(4), GridTopology(4, 4, 2, 2))
        col, row = cm.topo.col_members(1), cm.topo.row_members(0)
        for algo in BcastVariant:
            _elementwise(lambda b: cm.bcast_seconds_array(row, b, algo), nbytes)
        _elementwise(partial(cm.allreduce_seconds_array, col), nbytes)
        _elementwise(partial(cm.allgatherv_seconds_array, col), nbytes)
        _elementwise(partial(cm.binexch_allgather_seconds_array, col), nbytes)
        _elementwise(partial(cm.scatterv_seconds_array, (0, 1), col), nbytes)
