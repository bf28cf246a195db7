"""HPL's SWAP algorithm family: binary exchange vs spread-roll vs mix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HPLConfig, SwapVariant
from repro.errors import ConfigError
from repro.grid import ProcessGrid
from repro.hpl.driver import swap_algo
from repro.hpl.matrix import DistMatrix
from repro.hpl.rowswap import RowSwapper, compute_swap_plan

from .conftest import reference_solution, spmd


class TestBinexchAllgather:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8])
    def test_binexch_equals_long(self, p):
        """Both algorithms assemble identical U and write identical rows."""
        n, nb = 40, 4
        j0, jb = 4, 4
        ipiv = np.array([9, 17, 6, 33], dtype=np.int64)
        plan = compute_swap_plan(ipiv, j0, jb)

        def main(comm, algo):
            grid = ProcessGrid(comm, p, 1)
            mat = DistMatrix(grid, n, nb, seed=5)
            lo = mat.local_cols_from(j0 + jb)
            sw = RowSwapper(mat, plan, lo, mat.nloc_aug, algo=algo)
            sw.gather()
            sw.communicate()
            sw.scatter_back()
            sw.store_u(sw.u)
            return mat.gather_global(), sw.u

        full_long, u_long = spmd(p, main, "long")[0]
        full_bin, u_bin = spmd(p, main, "binexch")[0]
        assert np.array_equal(full_long, full_bin)
        assert np.array_equal(u_long, u_bin)

    def test_unknown_algo_rejected(self):
        def main(comm):
            grid = ProcessGrid(comm, 1, 1)
            mat = DistMatrix(grid, 8, 2, seed=1)
            plan = compute_swap_plan(np.array([1, 3], dtype=np.int64), 0, 2)
            with pytest.raises(ValueError):
                RowSwapper(mat, plan, 2, 4, algo="quantum")

        spmd(1, main)


class TestSwapSelection:
    def test_swap_algo_policy(self):
        cfg_long = HPLConfig(n=64, nb=8, p=2, q=2, swap=SwapVariant.LONG)
        cfg_bin = HPLConfig(n=64, nb=8, p=2, q=2, swap=SwapVariant.BINEXCH)
        cfg_mix = HPLConfig(
            n=64, nb=8, p=2, q=2, swap=SwapVariant.MIX, swap_threshold=16
        )
        assert swap_algo(cfg_long, 4) == "long"
        assert swap_algo(cfg_bin, 4000) == "binexch"
        assert swap_algo(cfg_mix, 16) == "binexch"
        assert swap_algo(cfg_mix, 17) == "long"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            HPLConfig(n=64, nb=8, p=2, q=2, swap_threshold=-1)


class TestEndToEnd:
    @pytest.mark.parametrize("variant", list(SwapVariant))
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_solver_correct_under_every_swap(self, variant, p, q):
        from repro.hpl.api import run_hpl

        cfg = HPLConfig(
            n=40, nb=8, p=p, q=q, swap=variant, swap_threshold=3
        )
        result = run_hpl(cfg)
        assert result.passed
        x_ref = reference_solution(40, cfg.seed)
        assert np.allclose(result.x, x_ref, atol=1e-9)

    def test_swap_variant_does_not_change_factorization(self):
        from repro.hpl.api import run_hpl

        runs = {
            v: run_hpl(HPLConfig(n=32, nb=4, p=2, q=2, swap=v, swap_threshold=4))
            for v in SwapVariant
        }
        base = runs[SwapVariant.LONG].x
        for v, r in runs.items():
            assert np.array_equal(r.x, base), v


class TestPerfModel:
    def test_binexch_cheaper_for_narrow_sections(self):
        """The reason MIX exists: latency dominates narrow swaps."""
        from repro.machine.comm_model import CommModel, GridTopology
        from repro.machine.frontier import crusher_cluster

        cm = CommModel(crusher_cluster(2), GridTopology(8, 2, 4, 2))
        members = cm.topo.col_members(0)
        narrow = 8.0 * 512 * 4  # 4-column section
        wide = 8.0 * 512 * 50_000
        assert cm.binexch_allgather_seconds_array(members, narrow) < (
            cm.allgatherv_seconds_array(members, narrow)
        )
        assert cm.allgatherv_seconds_array(members, wide) < (
            cm.binexch_allgather_seconds_array(members, wide)
        )

    def test_single_member_free(self):
        from repro.machine.comm_model import CommModel, GridTopology
        from repro.machine.frontier import crusher_cluster

        cm = CommModel(crusher_cluster(1), GridTopology(1, 8, 1, 8))
        assert cm.binexch_allgather_seconds_array([(0, 0)], 100) == 0.0
