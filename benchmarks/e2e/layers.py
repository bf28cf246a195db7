"""Per-layer probes: direct, timed calls into each layer's public functions.

Layer = module name.  Every probe runs at a fixed small size so the
whole set fits in a traced run beside the workload's own windows; what a
workload's windows themselves observe (service stage times, HPL phase
timers) is computed in ``service_load`` / ``numeric`` below from the ops.
Exact counts are taken on fixed or seed-determined inputs so they repeat.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np

from . import gen, stats, verify
from .service_load import BURST

STEP_REPEATS = 200
SPAWN_REPEATS = 40
COLD_INTERPRETERS = 3


def _p50(fn, repeats: int, scale: float) -> float:
    """Median wall time of ``fn(i)`` over ``repeats`` calls, scaled."""
    samples = []
    for i in range(repeats):
        start = time.perf_counter()
        fn(i)
        samples.append((time.perf_counter() - start) * scale)
    return stats.median(samples)


# ---------------------------------------------------------------------------
# service: one job's lifecycle stepped through in-process
# ---------------------------------------------------------------------------

_RESULT = {"score_tflops": 150.0, "makespan": 70.0, "iterations": 500,
           "hidden_time_fraction": 0.75, "nodes": 1}


def _submit_claim(service, payloads: list[dict]) -> tuple[float, float, list]:
    """p50 ms of ``submit`` and of a one-job ``claim_jobs``; the leases."""
    submit_ms = _p50(lambda i: service.submit("sim", payloads[i]),
                     len(payloads), 1e3)
    leased: list = []
    claim_ms = _p50(
        lambda i: leased.append(service.claim_jobs("bench", n=1)),
        len(payloads), 1e3)
    return submit_ms, claim_ms, leased


def service_steps(seed: int, scratch: str) -> dict:
    from repro.service import ResultCache, Service, payload_key
    from repro.service.jobs import Job
    from repro.service.workers import runner_for

    stream = gen.sim_payloads(seed + 1)
    out: dict[str, float] = {}

    payloads = list(itertools.islice(stream, STEP_REPEATS))
    out["service.cache.key_us"] = _p50(
        lambda i: payload_key("sim", payloads[i]), STEP_REPEATS, 1e6)

    one = Service(os.path.join(scratch, "steps-1"))
    three = Service(os.path.join(scratch, "steps-3"), shards=3)
    try:
        (out["service.api.submit_ms"], out["service.store.claim_batch_ms"],
         leased) = _submit_claim(one, payloads)
        out["service.api.complete_job_ms"] = _p50(
            lambda i: one.complete_job(leased[i][1][0].id, leased[i][0].id,
                                       _RESULT), len(leased), 1e3)
        nbatches = -(-STEP_REPEATS // BURST)
        batches = [[{"kind": "sim", "payload": p}
                    for p in itertools.islice(stream, BURST)]
                   for _ in range(nbatches)]
        out["service.api.submit_many_ms_per_job"] = _p50(
            lambda i: one.submit_many(batches[i]), nbatches, 1e3) / BURST
        out["service.events.page_ms"] = _p50(
            lambda i: one.events_page(cursor="begin", limit=500),
            STEP_REPEATS, 1e3)
        (out["service.shard.submit_ms"],
         out["service.shard.claim_batch_ms"], _) = _submit_claim(
            three, list(itertools.islice(stream, STEP_REPEATS)))
    finally:
        one.store.close()
        three.store.close()

    cache = ResultCache(os.path.join(scratch, "steps-cache"))
    keys = [payload_key("sim", p) for p in payloads]
    out["service.cache.put_ms"] = _p50(
        lambda i: cache.put(keys[i], "sim", payloads[i], _RESULT),
        STEP_REPEATS, 1e3)
    out["service.cache.get_ms"] = _p50(
        lambda i: cache.get(keys[i]), STEP_REPEATS, 1e3)

    # What the pool pays per job: a fork and a join around the runner.
    fork = multiprocessing.get_context("fork")
    probe = Job(id="probe", kind="probe", payload={"behavior": "ok"}, key="")

    def spawn(_i: int) -> None:
        child = fork.Process(target=runner_for("probe"),
                             args=(probe.payload, probe))
        child.start()
        child.join()

    out["service.workers.spawn_ms"] = _p50(spawn, SPAWN_REPEATS, 1e3)
    cold, warm = runner_import_ms(payloads[0])
    out["service.workers.runner_cold_ms"] = cold
    out["service.workers.runner_warm_ms"] = warm
    return out


_RUNNER_PROBE = """
import json, sys, time
from repro.service.workers import runner_for
payload = json.loads(sys.argv[1])
times = []
for _ in range(2):
    start = time.perf_counter()
    runner_for("sim")(payload, None)
    times.append((time.perf_counter() - start) * 1e3)
print(json.dumps(times))
"""


def runner_import_ms(payload: dict) -> tuple[float, float]:
    """First vs second ``runner_for("sim")`` call in a fresh interpreter.

    The runners import the simulator lazily, so the first call pays the
    import every fork-per-job pays; the difference is that import.
    """
    colds, warms = [], []
    for _ in range(COLD_INTERPRETERS):
        done = subprocess.run(
            [sys.executable, "-c", _RUNNER_PROBE, json.dumps(payload)],
            check=True, capture_output=True, text=True, timeout=60)
        cold, warm = json.loads(done.stdout)
        colds.append(cold)
        warms.append(warm)
    return stats.median(colds), stats.median(warms)


def warm_pricing_ms(payloads: list[dict]) -> float:
    """p50 of a warm in-process ``simulate_run`` over job payloads."""
    from repro.machine.frontier import crusher_cluster
    from repro.perf import simulate_run

    cluster = crusher_cluster(1)
    configs = [gen.perf_config(p) for p in payloads]
    simulate_run(configs[0], cluster)
    return _p50(lambda i: simulate_run(configs[i], cluster),
                len(configs), 1e3)


# ---------------------------------------------------------------------------
# simulator: perf, sched, machine, grid
# ---------------------------------------------------------------------------

FAST_CYCLES = 6
FULL_CYCLES = 3


def simulator(seed: int) -> dict:
    from repro.config import BcastVariant
    from repro.grid.block_cyclic import numroc, numroc_array
    from repro.machine.comm_model import CommModel, GridTopology
    from repro.machine.cpu_model import fact_seconds_array
    from repro.machine.frontier import crusher_cluster
    from repro.machine.gemm_model import dgemm_seconds, dgemm_seconds_array
    from repro.perf import (PerfConfig, run_cost_arrays, run_costs,
                            simulate_run)
    from repro.sched.engine import simulate
    from repro.sched.fastpath import evaluate
    from repro.sched.timeline import build_run
    from repro.sched.trace import to_chrome_trace

    clusters = {n: crusher_cluster(n) for n in gen.SCALE_NODES}
    out: dict[str, float] = {}
    clock = time.perf_counter

    # -- fast stack, on the fig8_sweep stream ---------------------------
    points = gen.scaling_payloads(seed + 1)
    cold, warm, evalu, report = [], [], [], []
    iterations = 0
    seconds = 0.0
    for _ in range(FAST_CYCLES * len(gen.SCALE_NODES)):
        nnodes, payload = next(points)
        cfg, cluster = gen.perf_config(payload), clusters[nnodes]
        cls = f"{nnodes}node"
        run_cost_arrays.cache_clear()
        t0 = clock()
        arrays = run_cost_arrays(cfg, cluster)
        t1 = clock()
        evaluate(arrays)
        t2 = clock()
        run_cost_arrays(cfg, cluster)
        t3 = clock()
        run_cost_arrays.cache_clear()
        t4 = clock()
        simulate_run(cfg, cluster, fidelity="fast")
        t5 = clock()
        cold.append((cls, (t1 - t0) * 1e3))
        evalu.append((cls, (t2 - t1) * 1e3))
        warm.append((cls, (t3 - t2) * 1e6))
        report.append((cls, ((t5 - t4) - (t2 - t0)) * 1e3))
        iterations += cfg.nblocks
        seconds += t5 - t4
    out["perf.fastledger.cold_ms"] = stats.class_balanced_median(cold)
    out["perf.fastledger.warm_us"] = stats.class_balanced_median(warm)
    out["sched.fastpath.evaluate_ms"] = stats.class_balanced_median(evalu)
    out["perf.hplsim.report_ms"] = stats.class_balanced_median(report)
    out["perf.iterations_per_s"] = iterations / seconds

    # -- object stack, on the fig7_full stream --------------------------
    points = gen.full_payloads(seed + 1)
    costs_ms, build_ms, sim_ms, per_task, export_ms = [], [], [], [], []
    for _ in range(FULL_CYCLES * len(gen.FULL_NODES)):
        nnodes, payload = next(points)
        cfg, cluster = gen.perf_config(payload), clusters[nnodes]
        cls = f"{nnodes}node"
        t0 = clock()
        costs = run_costs(cfg, cluster)
        t1 = clock()
        tasks = build_run(costs)
        t2 = clock()
        timeline = simulate(tasks)
        t3 = clock()
        to_chrome_trace(timeline)
        t4 = clock()
        costs_ms.append((cls, (t1 - t0) * 1e3))
        build_ms.append((cls, (t2 - t1) * 1e3))
        sim_ms.append((cls, (t3 - t2) * 1e3))
        per_task.append((cls, (t3 - t2) * 1e6 / len(tasks)))
        export_ms.append((cls, (t4 - t3) * 1e3))
    out["perf.ledger.run_costs_ms"] = stats.class_balanced_median(costs_ms)
    out["sched.timeline.build_run_ms"] = stats.class_balanced_median(build_ms)
    out["sched.engine.simulate_ms"] = stats.class_balanced_median(sim_ms)
    out["sched.engine.us_per_task"] = stats.class_balanced_median(per_task)
    out["sched.trace.export_ms"] = stats.class_balanced_median(export_ms)
    fig7 = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
    out["sched.tasks_per_run"] = len(build_run(run_costs(fig7, clusters[1])))

    # -- machine and grid models, array twin against scalar twin --------
    # Extents of the 128-node run (5657 iterations on a 32 x 32 grid).
    big = PerfConfig(n=2_896_384, nb=512, p=32, q=32, pl=1, ql=8)
    length = big.nblocks
    k = np.arange(length, dtype=np.int64)
    rows = numroc_array(big.n - k * big.nb, big.nb, 0, big.p)
    width = np.full(length, big.nb, dtype=np.int64)
    gpu, cpu = clusters[128].node.gpu, clusters[128].node.cpu
    reps = 20
    out["machine.gemm.array_us_per_iter"] = _p50(
        lambda i: dgemm_seconds_array(gpu, rows, rows, width),
        reps, 1e6) / length
    out["machine.gemm.scalar_us"] = _p50(
        lambda i: [dgemm_seconds(gpu, 8192 + j, 8192, 512)
                   for j in range(100)], reps, 1e6) / 100
    tall = np.maximum(rows, width)
    out["machine.cpu.fact_array_us_per_iter"] = _p50(
        lambda i: fact_seconds_array(cpu, tall, width, 8),
        reps, 1e6) / length
    topo = GridTopology(big.p, big.q, big.pl, big.ql)
    out["machine.comm.build_ms"] = _p50(
        lambda i: CommModel(clusters[128], topo), reps, 1e3)
    cm = CommModel(clusters[128], topo)
    nbytes = 8.0 * rows * width
    out["machine.comm.array_us_per_iter"] = _p50(
        lambda i: (cm.bcast_seconds_array(topo.row_members(0), nbytes,
                                          BcastVariant.ONE_RING_M),
                   cm.allgatherv_seconds_array(topo.col_members(0), nbytes)),
        reps, 1e6) / length
    out["grid.numroc_array_us_per_iter"] = _p50(
        lambda i: numroc_array(big.n - k * big.nb, big.nb, 0, big.p),
        reps, 1e6) / length
    out["grid.numroc_scalar_us"] = _p50(
        lambda i: [numroc(big.n - j * big.nb, big.nb, 0, big.p)
                   for j in range(100)], reps, 1e6) / 100

    # -- simulated statistics: exact, host speed must not move them -----
    anchors = verify.simulated_anchors()
    out["perf.sim.score_tflops_1node"] = anchors["score_tflops_1node"]
    out["perf.sim.score_pflops_128node"] = \
        anchors["score_tflops_128node"] / 1e3
    out["perf.sim.hidden_time_fraction_1node"] = \
        anchors["hidden_time_fraction_1node"]
    out["perf.sim.efficiency_128node"] = anchors["efficiency_128node"]
    out["perf.sim.model_abs_err_pct"] = anchors["model_abs_err_pct"]
    return out


# ---------------------------------------------------------------------------
# numeric engine: hpl, blas, simmpi
# ---------------------------------------------------------------------------

COLLECTIVE_REPEATS = 200
COLLECTIVE_BYTES = 32 * 1024


def _collectives(comm) -> tuple[float, float]:
    buf = np.zeros(COLLECTIVE_BYTES // 8)
    comm.barrier()
    start = time.perf_counter()
    for _ in range(COLLECTIVE_REPEATS):
        comm.bcast(buf if comm.rank == 0 else None, root=0)
    comm.barrier()
    mid = time.perf_counter()
    for _ in range(COLLECTIVE_REPEATS):
        comm.allreduce(buf, op="sum")
    comm.barrier()
    end = time.perf_counter()
    return ((mid - start) * 1e6 / COLLECTIVE_REPEATS,
            (end - mid) * 1e6 / COLLECTIVE_REPEATS)


def numeric(solves: list[tuple[float, object]]) -> dict:
    """``solves``: ``(run_hpl wall seconds, HPLResult)`` per verified solve."""
    from repro import HPLConfig, run_hpl
    from repro.simmpi import run_spmd

    results = [r for _, r in solves]
    first = results[0]
    cfg = first.config
    out: dict[str, float] = {}
    out["hpl.factor_solve_s"] = stats.median(r.wall_seconds for r in results)
    out["hpl.generate_verify_s"] = stats.median(
        wall - r.wall_seconds for wall, r in solves)
    for label in ("FACT", "LBCAST", "RS", "UPDATE"):
        out[f"hpl.{label.lower()}_s"] = stats.median(
            r.timers[0].total(label).seconds for r in results)
    out["hpl.resid_max"] = max(r.resid for r in results)

    start = time.perf_counter()
    base = run_hpl(HPLConfig(n=cfg.n, nb=cfg.nb, p=1, q=1, fact_threads=1,
                             seed=cfg.seed))
    out["hpl.baseline_1x1_s"] = time.perf_counter() - start
    if verify.hpl_wrong(base, check_solution=False):
        raise verify.CheckFailed("1x1 baseline solve failed verification")

    phases = ("FACT", "LBCAST", "RS", "UPDATE")
    out["blas.flops"] = sum(t.total(label).flops
                            for t in first.timers for label in phases)
    update = first.timers[0].total("UPDATE")
    out["blas.update_gflops"] = update.flops / update.seconds / 1e9
    a, b = verify.dense_system(cfg)
    out["blas.lapack_solve_s"] = _p50(
        lambda i: np.linalg.solve(a, b), 5, 1.0)

    out["simmpi.msgs_sent"] = sum(s.total.msgs_sent for s in first.comm_stats)
    out["simmpi.bytes_sent"] = sum(
        s.total.bytes_sent for s in first.comm_stats)
    out["simmpi.launch_ms"] = _p50(
        lambda i: run_spmd(4, lambda comm: None), 20, 1e3)
    bcast_us, allreduce_us = run_spmd(4, _collectives)[0]
    out["simmpi.bcast_us"] = bcast_us
    out["simmpi.allreduce_us"] = allreduce_us
    return out
