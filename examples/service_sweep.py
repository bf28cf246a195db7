"""Batch runs over HTTP: submit a sweep, gather it async, reuse results.

A small-scale version of how ``benchmarks/bench_fig8_scaling.py``
regenerates Figure 8, now through the full networked stack: a
``ServiceHTTPServer`` (what ``repro serve`` runs) hosts the queue, the
cache, and a two-slot multiprocess worker pool; an ``AsyncServiceClient``
submits the grid over the socket and gathers the points off the
``/v1/events`` feed; resubmitting the same sweep is served
entirely from the content-addressed cache without running anything.

Run with:  PYTHONPATH=src python examples/service_sweep.py
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.service import Sweep
from repro.service.http import AsyncServiceClient, ServiceHTTPServer

# A 2 x 2 x 2 = 8-point grid over problem size, blocking factor, and
# split fraction, simulated on the Crusher single-node model.
SWEEP = Sweep(
    kind="sim",
    axes={
        "n": [64_000, 128_000],
        "nb": [256, 512],
        "split_fraction": [0.3, 0.5],
    },
    base={"p": 4, "q": 2},
)


async def run_example(url: str) -> None:
    client = AsyncServiceClient(url)

    receipt = await client.submit_sweep(SWEEP)
    print(f"queued {len(receipt.new)} jobs on {url}")

    views = await client.wait(receipt.job_ids, timeout=600)
    states = [v.state for v in views.values()]
    print(f"gathered {states.count('DONE')} completed point(s)\n")

    print(f"{'N':>8} {'NB':>5} {'frac':>5} {'TFLOPS':>8} {'hidden%':>8}")
    for jid in receipt.job_ids:
        job = await client.job(jid)
        r = views[jid].result
        print(f"{r['n']:>8} {r['nb']:>5}"
              f" {job.payload['split_fraction']:>5.2f}"
              f" {r['score_tflops']:>8.1f}"
              f" {100 * r['hidden_time_fraction']:>8.1f}")

    # Identical resubmission: served from cache, nothing runs.
    again = await client.submit_sweep(SWEEP)
    print(f"\nresubmitted: {len(again.cached)} of "
          f"{len(again.job_ids)} points served from cache")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        # In production this is a long-lived `repro serve` process and
        # the clients live on other hosts; here both share one process.
        with ServiceHTTPServer(workdir, port=0, workers=2) as server:
            asyncio.run(run_example(server.url))


if __name__ == "__main__":
    main()
