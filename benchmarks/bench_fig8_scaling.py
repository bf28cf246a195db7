"""Figure 8: weak scaling of the HPL score from 1 to 128 Crusher nodes.

Regenerates the paper's sweep (square-or-2:1 grids, 1x8 node-local grids
once Q >= 8, N scaled to fill HBM, NB = 512, 50-50 split) and checks its
registry claims on the points it gathers: >90 % weak-scaling efficiency
out to 128 nodes and a final score in the neighborhood of the measured
17.75 PFLOPS.

This benchmark is submitted *through the batch service over HTTP*
(:mod:`repro.service.http`): a ``ServiceHTTPServer`` hosts the queue
with a resident two-slot worker pool, each node count becomes one
``scale`` job submitted by a :class:`ServiceClient`, and the
points are gathered back over the socket from the content-addressed
result cache -- so resubmitting the sweep (the final test) costs
nothing and proves networked result reuse end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.perf.claims import BY_ID, Bundle
from repro.perf.report import format_scaling_table
from repro.service import Sweep
from repro.service.http import ServiceClient, ServiceHTTPServer

from .conftest import assert_claims, write_artifact

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
    with ServiceClient(url) as client:
        receipt = client.submit_sweep(SWEEP)
        views = client.wait(receipt.job_ids, timeout=1800)
    points = []
    for jid in receipt.job_ids:
        assert views[jid].state == "DONE", \
            f"scale job {jid} ended {views[jid].state}"
        result = views[jid].result
        points.append(_Point(
            nnodes=result["nnodes"], n=result["n"], p=result["p"],
            q=result["q"], tflops=result["tflops"],
        ))
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


def test_fig8_claims(points):
    """The registry's Fig. 8 claims, on the points served over HTTP; the
    1-node point is the Fig. 7 run, so it carries ``fig7.score``."""
    served = Bundle()
    served.fig8 = points
    assert_claims(
        served, "fig8.scores", "fig8.efficiency", "fig8.efficiency_128",
        "fig8.efficiency_declines", "fig8.final_score", "fig8.grid_policy",
    )
    single = BY_ID["fig7.score"]
    assert single.failure(points[0].tflops) is None


def test_fig8_resubmission_served_from_cache(server, points):
    """The whole sweep resubmitted is a pure cache hit: no job runs."""
    store = server.service.store
    launched_before = sum(
        1 for e in store.events() if e["event"] == "launched"
    )
    with ServiceClient(server.url) as client:
        receipt = client.submit_sweep(SWEEP)
    assert len(receipt.cached) == len(NODE_COUNTS)
    assert not receipt.new
    launched_after = sum(
        1 for e in store.events() if e["event"] == "launched"
    )
    assert launched_after == launched_before
