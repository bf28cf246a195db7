"""Section V (discussion) and the power story, as benchmark artifacts.

* the compute-vs-network sweep: efficiency of peak collapses as GPU
  throughput scales against a fixed network -- the paper's closing
  argument;
* the energy accounting: HPL holds the node near peak draw, at a
  GFLOPS/W figure consistent with Frontier's Green500 entry.

Both check their claims (``sec5.*``, ``energy.*``) through the registry.
"""

from __future__ import annotations

import io

from repro.machine.power_model import energy_of_run
from repro.perf.claims import NODE, Bundle
from repro.perf.generations import generational_sweep

from .conftest import assert_claims, write_artifact


def test_generational_sweep(benchmark, artifact_dir):
    written = Bundle()
    written.generations = benchmark.pedantic(generational_sweep, rounds=1,
                                             iterations=1)
    out = io.StringIO()
    out.write(
        f"{'scale':>7s}{'score TF':>10s}{'ceiling':>9s}{'eff %':>7s}"
        f"{'hidden %':>10s}\n"
    )
    for pt in written.generations:
        out.write(
            f"{pt.compute_scale:>7.1f}{pt.score_tflops:>10.1f}"
            f"{pt.ceiling_tflops:>9.1f}{pt.efficiency * 100:>7.1f}"
            f"{pt.hidden_time_fraction * 100:>10.1f}\n"
        )
    write_artifact("generational_sweep.txt", out.getvalue())
    assert_claims(written, "sec5.efficiency_falls_with_compute",
                  "sec5.hidden_window_closes", "sec5.score_rises_with_compute")


def test_energy_accounting(benchmark, artifact_dir):
    written = Bundle()
    written.energy = energy = benchmark(energy_of_run, written.fig7, NODE.node)
    out = io.StringIO()
    out.write("Single-node N=256000 run:\n")
    out.write(f"  runtime        : {energy.seconds:10.1f} s\n")
    out.write(f"  energy         : {energy.joules / 1e6:10.2f} MJ\n")
    out.write(f"  mean node power: {energy.mean_node_w:10.0f} W of "
              f"{energy.peak_node_w:.0f} W peak\n")
    out.write(f"  efficiency     : {energy.gflops_per_w:10.1f} GFLOPS/W "
              "(Frontier Green500: ~52)\n")
    for part, joules in energy.components.items():
        out.write(f"    {part:<9s}: {joules / energy.joules * 100:5.1f} %\n")
    write_artifact("energy_accounting.txt", out.getvalue())
    assert_claims(written, "energy.near_peak_draw", "energy.gflops_per_w",
                  "energy.gpu_dominates")
