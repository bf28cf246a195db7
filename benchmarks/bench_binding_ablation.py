"""Section III.B: CPU core time-sharing arithmetic and its payoff.

Regenerates the paper's worked example (a 2x4 node-local grid leaves 42
cores idle without sharing; with sharing every FACT uses P + Cbar cores)
and sweeps the node-local grid shape on the performance model to show the
time-sharing factor's effect on the score.
"""

from __future__ import annotations

import io

from repro.binding import compute_bindings, crusher_topology, validate_bindings

from .conftest import assert_claims, write_artifact

LOCAL_GRIDS = [(8, 1), (4, 2), (2, 4), (1, 8)]


def test_binding_table(benchmark, bundle, artifact_dir):
    """T = 1 + Cbar/pl for every node-local grid; all invariants hold."""
    topo = crusher_topology()

    def build_all():
        return {
            (pl, ql): compute_bindings(pl, ql, topo) for pl, ql in LOCAL_GRIDS
        }

    bindings = benchmark(build_all)
    out = io.StringIO()
    out.write(f"{'grid':>6s}{'T':>5s}{'FACT cores':>12s}{'idle in FACT':>14s}\n")
    for (pl, ql), bs in bindings.items():
        validate_bindings(bs, topo)
        t = bs[0].nthreads
        fact_cores = pl * t
        waiting_roots = pl * ql - pl
        idle = topo.cores - fact_cores - waiting_roots
        out.write(f"{pl}x{ql:<5d}{t:>5d}{fact_cores:>12d}{idle:>14d}\n")
    write_artifact("binding_table.txt", out.getvalue())

    assert_claims(bundle, "sec3b.two_by_four")


def test_time_sharing_improves_score(benchmark, bundle, artifact_dir):
    """More node-local columns => more FACT threads => shorter tail, until
    the grid shape itself (row count) hurts other phases -- matching the
    paper's choice of 4x2 on a single node; and disabling time-sharing
    (T=8, plain partition) costs score at that configuration."""
    rows = benchmark.pedantic(lambda: bundle.local_grids, rounds=1, iterations=1)
    out = io.StringIO()
    out.write(f"{'grid':>6s}{'T':>5s}{'TFLOPS':>10s}\n")
    for (pl, ql), (t, score) in rows.items():
        out.write(f"{pl}x{ql:<5d}{t:>5d}{score:>10.1f}\n")
    write_artifact("local_grid_sweep.txt", out.getvalue())
    assert_claims(bundle, "sec3b.local_grid", "sec3b.time_sharing_payoff")
