"""Related-work baseline: HBM-resident (the paper) vs host-resident (prior).

The paper's Sections I-III argue that the classic pipelined host-resident
design (Fatica 2009 and successors) became impractical on MI250X-class
accelerators, forcing the all-in-HBM layout.  This bench quantifies the
claim on the calibrated models, writes the comparison artifact and
checks the claims registry's ``sec1.*`` host-resident entries.
"""

from __future__ import annotations

import io

from repro.perf.claims import FIG7, NODE
from repro.perf.hostresident import required_nb_for_device, simulate_host_resident

from .conftest import assert_claims, write_artifact


def test_design_comparison(benchmark, bundle, artifact_dir):
    benchmark.pedantic(simulate_host_resident, args=(FIG7, NODE),
                       rounds=1, iterations=1)
    resident, baseline = bundle.fig7, bundle.host_resident
    out = io.StringIO()
    out.write("Single Crusher node, N=256000, NB=512:\n")
    out.write(f"  HBM-resident (paper)  : {resident.score_tflops:8.1f} TFLOPS\n")
    out.write(f"  host-resident pipeline: {baseline.score_tflops:8.1f} TFLOPS "
              f"({baseline.device_utilization * 100:.1f}% device utilization)\n")
    nb_needed = required_nb_for_device(NODE.node.h2d, baseline.device_tflops)
    out.write(f"  NB needed to feed the device over the host link: {nb_needed}\n")
    write_artifact("baseline_comparison.txt", out.getvalue())
    assert_claims(bundle, "sec1.resident_vs_host", "sec1.nb_to_feed_device")


def test_crossover_history(benchmark, bundle, artifact_dir):
    """Pipelining was fine for ~1-TFLOPS GPUs over PCIe gen3; it starves
    an MI250X even over Infinity Fabric."""
    sweep = benchmark.pedantic(lambda: bundle.crossover, rounds=1, iterations=1)
    out = io.StringIO()
    out.write(f"{'device TFLOPS':>14s}{'streamed':>10s}{'util %':>8s}{'bound':>9s}\n")
    for _, pt in sweep:
        out.write(
            f"{pt.device_tflops:>14.2f}{pt.streamed_tflops:>10.2f}"
            f"{pt.device_utilization * 100:>8.1f}"
            f"{'compute' if pt.compute_bound else 'link':>9s}\n"
        )
    write_artifact("baseline_crossover.txt", out.getvalue())
    assert_claims(bundle, "sec1.crossover")
