"""Benchmark-level simulation: the ledger, Fig. 8's grid arithmetic, the
Fig. 5 sweep's structure and the report formatters.  What the paper
claims of these runs is checked in ``test_claims.py``."""

from __future__ import annotations

import pytest

from repro.config import Schedule
from repro.errors import ConfigError
from repro.machine.frontier import crusher_cluster
from repro.perf import (
    PerfConfig,
    choose_grid,
    fact_sweep,
    run_costs,
    run_sizes,
    simulate_run,
    weak_scaling,
)
from repro.perf.ledger import time_sharing_threads
from repro.sched.fastpath import MODE_LOOKAHEAD, MODE_SPLIT
from repro.perf.scaling import node_local_grid, scaled_n


def _small_cfg(**kw) -> PerfConfig:
    base = dict(n=16384, nb=512, p=4, q=2, pl=4, ql=2)
    base.update(kw)
    return PerfConfig(**base)


CLUSTER = crusher_cluster(1)


class TestLedger:
    def test_time_sharing_formula(self):
        """Section III.B: T = 1 + Cbar/pl (paper's worked examples)."""
        assert time_sharing_threads(64, 4, 2) == 15
        assert time_sharing_threads(64, 2, 4) == 29
        assert time_sharing_threads(64, 1, 8) == 57
        assert time_sharing_threads(64, 8, 1) == 8

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ConfigError):
            time_sharing_threads(4, 4, 2)

    def test_section_widths_partition_trailing(self):
        from repro.grid.block_cyclic import num_local_before, numroc

        cfg = _small_cfg()
        sz = run_sizes(cfg)
        for k in range(cfg.nblocks - 1):
            c_f = (k + 1) % cfg.q
            nloc = numroc(cfg.n + 1, cfg.nb, c_f, cfg.q)
            trailing = nloc - num_local_before((k + 1) * cfg.nb, cfg.nb, c_f, cfg.q)
            assert sz.w_la[k] + sz.w_left[k] + sz.w_right[k] == trailing

    def test_split_mode_transitions_to_lookahead(self):
        modes = run_sizes(_small_cfg()).mode.tolist()
        assert modes[0] == MODE_SPLIT
        assert modes[-2] == MODE_LOOKAHEAD
        # one-way transition
        first_la = modes.index(MODE_LOOKAHEAD)
        assert all(m == MODE_LOOKAHEAD for m in modes[first_la:])

    def test_right_section_width_fixed_while_split(self):
        """n2 is constant per process column while the split is active (the
        paper's requirement); the two grid columns differ only by the RHS
        column's ownership."""
        sz = run_sizes(_small_cfg())
        split = sz.mode == MODE_SPLIT
        assert split.any()
        for col in set(sz.c_f[split].tolist()):
            assert len(set(sz.w_right[split & (sz.c_f == col)].tolist())) == 1

    def test_costs_shrink_with_k(self):
        cfg = _small_cfg()
        costs = run_costs(cfg, CLUSTER)[1:]  # drop the preamble
        c_early, c_late = costs[0], costs[cfg.nblocks - 4]
        early_gpu = c_early.la.dgemm + c_early.left.dgemm + c_early.right.dgemm
        late_gpu = c_late.la.dgemm + c_late.left.dgemm + c_late.right.dgemm
        assert late_gpu < early_gpu / 4
        assert c_late.fact < c_early.fact

    def test_last_iteration_has_no_fact(self):
        last = run_costs(_small_cfg(), CLUSTER)[-1]
        assert last.fact == 0.0 and last.lbcast == 0.0

    def test_preamble_present_for_overlapped_schedules(self):
        assert run_costs(_small_cfg(), CLUSTER)[0].k == -1
        classic = run_costs(_small_cfg(schedule=Schedule.CLASSIC), CLUSTER)
        assert classic[0].k == 0

    def test_invalid_node_tiling(self):
        with pytest.raises(ConfigError):
            PerfConfig(n=1024, nb=512, p=4, q=2, pl=3, ql=2)


class TestFig8:
    def test_grid_chooser(self):
        assert choose_grid(8) == (4, 2)
        assert choose_grid(16) == (4, 4)
        assert choose_grid(64) == (8, 8)
        assert choose_grid(1024) == (32, 32)
        assert choose_grid(512) == (32, 16)  # 2:1 when not square
        assert choose_grid(1) == (1, 1)

    def test_node_local_grid_maximizes_columns(self):
        assert node_local_grid(4, 4) == (2, 4)
        assert node_local_grid(8, 8) == (1, 8)
        assert node_local_grid(32, 32) == (1, 8)
        assert node_local_grid(4, 2) == (4, 2)

    def test_scaled_n(self):
        assert scaled_n(1, 256_000, 512) == 256_000
        assert scaled_n(4, 256_000, 512) == 512_000
        assert scaled_n(2, 256_000, 512) % 512 == 0


class TestFig5:
    def test_sweep_structure(self):
        curves = fact_sweep()
        assert [c.threads for c in curves] == [1, 2, 4, 8, 16, 32, 64]
        for c in curves:
            assert len(c.gflops) == len(c.m_values)
            assert all(g > 0 for g in c.gflops)


class TestReport:
    def test_formatters_produce_text(self):
        from repro.perf.report import (
            format_breakdown_table,
            format_fact_table,
            format_hpl_line,
            format_run_report,
            format_scaling_table,
        )

        cfg = PerfConfig(n=8192, nb=512, p=4, q=2, pl=4, ql=2)
        report = simulate_run(cfg, CLUSTER)
        assert "8192" in format_run_report(report)
        table = format_breakdown_table(report, stride=4)
        assert "fact_ms" in table and len(table.splitlines()) > 2
        line = format_hpl_line(1000, 512, 2, 2, 10.0, 1.5)
        assert "1000" in line and "512" in line
        points = weak_scaling([1, 2], n_single=16384)
        assert "nodes" in format_scaling_table(points)
        assert "T=64" in format_fact_table(fact_sweep())
