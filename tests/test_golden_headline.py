"""Golden regression pins for the paper's headline numbers.

Unlike the shape assertions in test_perf.py (which allow wide ranges),
these pin the simulator's *current* Fig. 7 / Fig. 8 outputs tightly, so
any model or engine change that moves a headline number fails loudly and
must update the pin deliberately.  The pins read ``simulate_run``'s report;
a cross-check holds the per-task engine's timeline to the same makespan.
"""

from __future__ import annotations

import pytest

from repro.machine.frontier import crusher_cluster
from repro.perf import PerfConfig, simulate_run, simulate_timeline
from repro.perf.scaling import weak_scaling, weak_scaling_efficiency

REL = 1e-9


@pytest.fixture(scope="module")
def fig7_report():
    """The paper's single-node Fig. 7 run: N=256k, NB=512, 4x2, split."""
    cfg = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
    return simulate_run(cfg, crusher_cluster(1))


class TestFig7Golden:
    def test_hidden_time_fraction_pinned(self, fig7_report):
        """Paper: ~75 % of runtime in the fully-hidden regime."""
        assert fig7_report.hidden_time_fraction == pytest.approx(
            0.7629118310573169, rel=REL
        )
        assert 0.70 <= fig7_report.hidden_time_fraction <= 0.80

    def test_hidden_iteration_fraction_pinned(self, fig7_report):
        """Paper (Sec. V): about half the iterations are fully hidden."""
        assert fig7_report.hidden_iteration_fraction == pytest.approx(
            0.484, rel=REL
        )

    def test_single_node_score_pinned(self, fig7_report):
        """~80 % of the node's 196 TFLOPS DGEMM ceiling."""
        assert fig7_report.score_tflops == pytest.approx(
            157.09513660735203, rel=REL
        )

    def test_early_regime_throughput_pinned(self, fig7_report):
        """Paper: ~90 % of the DGEMM ceiling while updates stay fat."""
        early = fig7_report.early_regime_tflops()
        assert early == pytest.approx(181.3091112130893, rel=REL)
        assert early / 196.0 > 0.90

    def test_regime_crossover_pinned(self, fig7_report):
        """Paper: the regimes cross near iteration 250 of 500."""
        assert fig7_report.first_exposed == 241
        assert len(fig7_report.k) == 500

    def test_fast_and_full_engines_agree_bitwise(self, fig7_report):
        timeline = simulate_timeline(fig7_report.cfg, crusher_cluster(1))
        assert timeline.makespan == fig7_report.makespan


class TestFig8Golden:
    @pytest.fixture(scope="class")
    def points(self):
        return weak_scaling([1, 128])

    def test_128_node_efficiency_pinned(self, points):
        """Paper: >90 % weak-scaling efficiency out to 128 nodes."""
        eff = weak_scaling_efficiency(points)[-1]
        assert eff == pytest.approx(0.9447822429641267, rel=REL)
        assert eff > 0.90

    def test_128_node_score_pinned(self, points):
        """Paper's Frontier headline: ~17.75 PFLOPS territory."""
        final = points[-1]
        assert final.nnodes == 128
        assert final.tflops == pytest.approx(18997.84902689919, rel=REL)
        assert 15_000 <= final.tflops <= 21_000
