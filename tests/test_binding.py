"""Core time-sharing bindings (paper Section III.B)."""

from __future__ import annotations

import pytest

from repro.binding import (
    compute_bindings,
    crusher_topology,
    validate_bindings,
)
from repro.binding.topology import CRUSHER_GCD_TO_CCD, NodeTopology
from repro.errors import ConfigError

ALL_LOCAL_GRIDS = [(1, 8), (2, 4), (4, 2), (8, 1)]


class TestTopology:
    def test_crusher_defaults(self):
        topo = crusher_topology()
        assert topo.cores == 64 and topo.ccds == 8 and topo.gpus == 8
        assert topo.cores_per_ccd == 8

    def test_gcd_ccd_mapping_is_a_bijection(self):
        assert sorted(CRUSHER_GCD_TO_CCD) == list(range(8))

    def test_ccd_cores_partition_socket(self):
        topo = crusher_topology()
        cores = [c for ccd in range(8) for c in topo.ccd_cores(ccd)]
        assert sorted(cores) == list(range(64))

    def test_nearest_cores(self):
        topo = crusher_topology()
        # GCD 0 -> CCD 6 -> cores 48-55
        assert topo.nearest_cores(0) == list(range(48, 56))

    def test_validation(self):
        with pytest.raises(ConfigError):
            NodeTopology(cores=60, ccds=8)
        with pytest.raises(ConfigError):
            NodeTopology(gcd_to_ccd=(0, 1, 2, 9, 4, 5, 6, 7))
        with pytest.raises(ConfigError):
            crusher_topology().ccd_cores(8)
        with pytest.raises(ConfigError):
            crusher_topology().nearest_cores(8)


class TestBindings:
    @pytest.mark.parametrize("pl,ql", ALL_LOCAL_GRIDS)
    def test_invariants_hold(self, pl, ql):
        bindings = compute_bindings(pl, ql)
        validate_bindings(bindings)

    @pytest.mark.parametrize("pl,ql", ALL_LOCAL_GRIDS)
    def test_thread_count_formula(self, pl, ql):
        """T = 1 + Cbar/pl and a FACT phase uses pl + Cbar cores."""
        bindings = compute_bindings(pl, ql)
        cbar = 64 - 8
        assert all(b.nthreads == 1 + cbar // pl for b in bindings)
        fact_cores = set()
        col0 = [b for b in bindings if b.col == 0]
        for b in col0:
            fact_cores.update(b.cores)
        assert len(fact_cores) == pl + cbar

    def test_p_by_one_reduces_to_partition(self):
        """8x1: no sharing possible; every rank gets its own 8 cores."""
        bindings = compute_bindings(8, 1)
        assert all(b.nthreads == 8 for b in bindings)
        all_cores = set()
        for b in bindings:
            assert not all_cores & set(b.cores)
            all_cores.update(b.cores)
        assert len(all_cores) == 64

    def test_one_by_q_maximizes_sharing(self):
        """1x8: at most one rank ever factors, so all 57 cores are shared."""
        bindings = compute_bindings(1, 8)
        assert all(b.nthreads == 57 for b in bindings)
        pools = {b.pool_cores for b in bindings}
        assert len(pools) == 1  # every rank shares the same pool

    def test_root_in_nearest_ccd(self):
        topo = crusher_topology()
        for b in compute_bindings(4, 2, topo):
            assert b.root_core in topo.nearest_cores(b.rank)

    def test_same_row_shares_same_group(self):
        bindings = compute_bindings(4, 2)
        for b in bindings:
            peers = [x for x in bindings if x.row == b.row]
            assert all(p.pool_cores == b.pool_cores for p in peers)

    def test_locality_seeding(self):
        """A row's pool prefers cores from its own ranks' CCDs."""
        topo = crusher_topology()
        bindings = compute_bindings(4, 2, topo)
        for b in bindings:
            own_ccd_cores = set(topo.nearest_cores(b.rank))
            # the rank's nearest CCD contributes to its row's pool
            assert own_ccd_cores & set(b.pool_cores)

    def test_column_major_placement(self):
        bindings = compute_bindings(2, 4, row_major=False)
        validate_bindings(bindings)
        assert [b.row for b in bindings] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ConfigError):
            compute_bindings(2, 2)  # 4 ranks on an 8-GCD node

    def test_validate_catches_overlap(self):
        from repro.binding.coremap import Binding

        bad = [
            Binding(rank=0, row=0, col=0, root_core=0, pool_cores=(2, 3)),
            Binding(rank=1, row=1, col=0, root_core=1, pool_cores=(3, 4)),
        ]
        with pytest.raises(ConfigError, match="share pool cores"):
            validate_bindings(bad)

    def test_validate_catches_root_in_pool(self):
        from repro.binding.coremap import Binding

        bad = [Binding(rank=0, row=0, col=0, root_core=2, pool_cores=(2, 3))]
        with pytest.raises(ConfigError, match="root core inside"):
            validate_bindings(bad)
