"""Figure 8: weak scaling of the HPL score from 1 to 128 Crusher nodes.

Regenerates the paper's sweep (square-or-2:1 grids, 1x8 node-local grids
once Q >= 8, N scaled to fill HBM, NB = 512, 50-50 split) and asserts its
claims: >90 % weak-scaling efficiency at 128 nodes and a final score in
the neighborhood of the measured 17.75 PFLOPS.

This benchmark is submitted *through the batch service over HTTP*
(:mod:`repro.service.http`): a ``ServiceHTTPServer`` hosts the queue
with a resident two-slot worker pool, each node count becomes one
``scale`` job submitted by an :class:`AsyncServiceClient`, and the
points are gathered back over the socket from the content-addressed
result cache -- so resubmitting the sweep (the final test) costs
nothing and proves networked result reuse end-to-end.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import pytest

from repro.perf.report import format_scaling_table
from repro.perf.scaling import weak_scaling_efficiency
from repro.service import Sweep
from repro.service.http import AsyncServiceClient, ServiceHTTPServer

from .conftest import write_artifact

NODE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128]

SWEEP = Sweep(
    kind="scale",
    axes={"nnodes": NODE_COUNTS},
    base={"n_single": 256_000, "nb": 512, "schedule": "split"},
)


@dataclass(frozen=True)
class _Point:
    """The slice of a ScalePoint the Fig. 8 table and claims consume."""

    nnodes: int
    n: int
    p: int
    q: int
    tflops: float


def _run_sweep(url: str) -> list[_Point]:
    async def gather() -> list[dict]:
        client = AsyncServiceClient(url)
        receipt = await client.submit_sweep(SWEEP)
        views = await client.wait(receipt.job_ids, timeout=1800)
        results = []
        for jid in receipt.job_ids:
            assert views[jid].state == "DONE", \
                f"scale job {jid} ended {views[jid].state}"
            results.append(views[jid].result)
        return results

    points = [
        _Point(
            nnodes=result["nnodes"], n=result["n"], p=result["p"],
            q=result["q"], tflops=result["tflops"],
        )
        for result in asyncio.run(gather())
    ]
    return sorted(points, key=lambda pt: pt.nnodes)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with ServiceHTTPServer(tmp_path_factory.mktemp("fig8-service"),
                           port=0, workers=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def points(server):
    return _run_sweep(server.url)


def test_fig8_series(benchmark, server, points, artifact_dir):
    fresh = benchmark.pedantic(
        _run_sweep, args=(server.url,), rounds=1, iterations=1
    )
    write_artifact("fig8_weak_scaling.txt", format_scaling_table(fresh))
    assert [p.nnodes for p in fresh] == NODE_COUNTS


def test_fig8_efficiency_above_ninety_percent(points):
    """'over 90% weak-scaling efficiency from the single node score ...
    to the score on 128 nodes.'"""
    effs = weak_scaling_efficiency(points)
    assert all(e > 0.90 for e in effs)


def test_fig8_final_score_near_paper(points):
    """Paper: 17.75 PFLOPS at 128 nodes (from a 153 TFLOPS single node)."""
    final = points[-1]
    assert final.nnodes == 128
    assert 14_000 <= final.tflops <= 22_000

    single = points[0]
    assert 140 <= single.tflops <= 170  # paper: 153


def test_fig8_score_monotone_in_nodes(points):
    scores = [p.tflops for p in points]
    assert scores == sorted(scores)


def test_fig8_grid_policy_matches_paper(points):
    """Square or 2:1 grids; 1x8 node-local once Q >= 8."""
    for pt in points:
        assert pt.p == pt.q or pt.p == 2 * pt.q
    assert (points[-1].p, points[-1].q) == (32, 32)


def test_fig8_resubmission_served_from_cache(server, points):
    """The whole sweep resubmitted is a pure cache hit: no job runs."""
    store = server.service.store
    launched_before = sum(
        1 for e in store.events() if e["event"] == "launched"
    )
    async def resubmit():
        return await AsyncServiceClient(server.url).submit_sweep(SWEEP)
    receipt = asyncio.run(resubmit())
    assert len(receipt.cached) == len(NODE_COUNTS)
    assert not receipt.new
    launched_after = sum(
        1 for e in store.events() if e["event"] == "launched"
    )
    assert launched_after == launched_before
