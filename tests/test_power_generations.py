"""The power model and the Section V compute-vs-network sweep's machine.

What the paper claims of the energy and of the sweep is checked in
``test_claims.py`` (``energy.*``, ``sec5.*``)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.machine.frontier import crusher_cluster, crusher_node
from repro.machine.power_model import EnergyReport, PowerSpec, energy_of_run
from repro.perf.generations import scaled_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import PerfConfig


@pytest.fixture(scope="module")
def report():
    cfg = PerfConfig(n=65_536, nb=512, p=4, q=2, pl=4, ql=2)
    return simulate_run(cfg, crusher_cluster(1))


class TestPowerSpec:
    def test_node_peak(self):
        spec = PowerSpec()
        node = crusher_node()
        assert spec.node_peak_w(node) == 8 * 280 + 280 + 450
        assert spec.node_idle_w(node) < spec.node_peak_w(node)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PowerSpec(gpu_busy_w=50, gpu_idle_w=90)
        with pytest.raises(ConfigError):
            PowerSpec(cpu_busy_w=10, cpu_idle_w=95)


class TestEnergyOfRun:
    def test_mean_between_idle_and_peak(self, report):
        node = crusher_node()
        spec = PowerSpec()
        energy = energy_of_run(report, node, spec)
        assert spec.node_idle_w(node) < energy.mean_node_w < spec.node_peak_w(node)

    def test_components_sum_to_total(self, report):
        energy = energy_of_run(report, crusher_node())
        assert sum(energy.components.values()) == pytest.approx(energy.joules)

    def test_node_count_scales_energy_not_mean(self, report):
        one = energy_of_run(report, crusher_node(), node_count=1)
        four = energy_of_run(report, crusher_node(), node_count=4)
        assert four.joules == pytest.approx(4 * one.joules)
        assert four.mean_node_w == pytest.approx(one.mean_node_w)
        assert four.mean_total_w == pytest.approx(4 * one.mean_total_w / 4 * 4)

    def test_energy_report_type(self, report):
        assert isinstance(energy_of_run(report, crusher_node()), EnergyReport)


class TestGenerationalSweep:
    def test_scaled_cluster_only_touches_gpu(self):
        base = crusher_cluster(1)
        fast = scaled_cluster(base, 2.0)
        assert fast.node.gpu.peak_fp64_matrix_tflops == pytest.approx(
            2 * base.node.gpu.peak_fp64_matrix_tflops
        )
        assert fast.node.nic == base.node.nic
        assert fast.node.cpu == base.node.cpu

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_cluster(crusher_cluster(1), 0.0)
