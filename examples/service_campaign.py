"""Tune-then-scale as one request: a staged campaign over HTTP.

The paper's methodology in miniature — tune the blocking factor NB on a
single node (Fig. 7's sweep), pick the highest-scoring point, then run
the weak-scaling study (Fig. 8) *at* the winning NB — expressed as one
``POST /v1/campaigns``.  The coordinator expands the spec into a job
DAG: the scaling stage is born BLOCKED, the ``reduce`` stage picks the
winner from its parents' results, and the ``{"$winner": "nb"}``
placeholder resolves at launch, after the winner exists.

Run with:  PYTHONPATH=src python examples/service_campaign.py
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.service.http import AsyncServiceClient, ServiceHTTPServer

CAMPAIGN = {
    "name": "tune-then-scale",
    "stages": [
        # Stage 1: tune NB at a fixed single-node problem.
        {"name": "tune",
         "sweep": {"kind": "sim",
                   "axes": {"nb": [128, 256, 512]},
                   "base": {"n": 64_000, "p": 4, "q": 2}}},
        # Stage 2: pick the NB with the best simulated throughput.
        {"name": "pick", "after": ["tune"],
         "kind": "reduce",
         "payload": {"metric": "score_tflops", "mode": "max"}},
        # Stage 3: weak-scale at the winning NB (resolved at launch).
        {"name": "scale", "after": ["pick"],
         "sweep": {"kind": "scale",
                   "axes": {"nnodes": [1, 4, 16]},
                   "base": {"n_single": 64_000,
                            "nb": {"$winner": "nb"}}}},
    ],
}


async def run_example(url: str) -> None:
    client = AsyncServiceClient(url)

    view = await client.submit_campaign(CAMPAIGN)
    print(f"campaign {view.id} ({view.name}): {view.njobs} jobs")
    for stage in view.stages:
        print(f"  stage {stage.name:<6} {stage.kind:<7}"
              f" {len(stage.job_ids)} job(s)  after={list(stage.after)}")

    # One wait over every job id; the server releases each stage as its
    # parents finish.
    all_ids = [jid for s in view.stages for jid in s.job_ids]
    await client.wait(all_ids, timeout=600)

    final = await client.campaign(view.id)
    print(f"\ncampaign state: {final.state}")
    pick = next(s for s in final.stages if s.name == "pick")
    winner = (await client.result(pick.job_ids[0])).result
    print(f"winning NB: {winner['winner_payload']['nb']}"
          f" ({winner['value']:.1f} TFLOPS single-node)")

    scale = next(s for s in final.stages if s.name == "scale")
    print(f"\n{'nodes':>6} {'N':>9} {'TFLOPS':>9} {'hidden%':>8}")
    rows = []
    for jid in scale.job_ids:
        r = (await client.result(jid)).result
        rows.append((r["nnodes"], r["n"], r["tflops"],
                     r["hidden_time_fraction"]))
    for nnodes, n, tflops, hidden in sorted(rows):
        print(f"{nnodes:>6} {n:>9} {tflops:>9.1f} {100 * hidden:>7.1f}%")

    dag = await client.campaign_dag(view.id)
    edges = sum(len(n["depends_on"]) for n in dag.nodes)
    print(f"\nDAG: {len(dag.nodes)} nodes, {edges} dependency edges")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        # In production this is a long-lived `repro serve`; here the
        # coordinator and the client share one process.
        with ServiceHTTPServer(workdir, port=0, workers=2) as server:
            asyncio.run(run_example(server.url))


if __name__ == "__main__":
    main()
