"""Simulator-speed benchmark: closed-form timeline vs the per-task engine.

Both engines read the same memoized cost arrays
(:func:`~repro.perf.ledger.run_cost_arrays`), so the only remaining twin
is the timeline: ``sched.fastpath.evaluate`` against ``build_run`` +
``simulate`` over the same :class:`~repro.sched.fastpath.CostArrays`.
For each Fig. 8 sweep point this benchmark times that pair, plus the
whole ``simulate_run`` three ways -- ``full``, fast *cold* (memo cleared
first, so the time includes pricing every cost array) and fast *warm*
(arrays cached, the realistic service-tier steady state) -- and asserts
the two engines still land on bit-identical makespans while doing it.

The committed trajectory (``BENCH_sim_speed.json`` at the repo root)
records every entry so a regression is a diff, not an anecdote.  The
gates: a cold fast run must cost no more than 1.25x the last committed
entry's (1.2 / 2.0 / 5.7 ms at 1 / 8 / 128 nodes, of which the timeline
is 0.4 / 0.9 / 3.7 ms), and the closed-form timeline must beat the
object engine >= 8x on every sweep point (measured 37-74x).

Run directly for more repeats::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py --repeats 5

or through pytest (the CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_speed.py -q
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys
import time

from repro.machine.frontier import crusher_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import PerfConfig, run_cost_arrays
from repro.perf.scaling import choose_grid, node_local_grid, scaled_n
from repro.sched.engine import simulate
from repro.sched.fastpath import evaluate
from repro.sched.timeline import build_run

try:
    from .conftest import write_artifact
except ImportError:  # direct `python benchmarks/bench_sim_speed.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import write_artifact

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_sim_speed.json"

#: The acceptance gate: resolving the timeline in closed form must beat
#: materializing and simulating its tasks by at least this factor on
#: every Fig. 8 sweep point.  Pricing is excluded on purpose -- both
#: engines share it, so a cheaper ledger must not be able to trip (or
#: mask) this gate.  Measured: 37-41x at 1 node, 50-52x at 8,
#: 68-74x at 128.
TIMELINE_SPEEDUP_FLOOR = 8.0

#: A cold fast run (pricing + timeline + report) may cost at most this
#: multiple of the last committed entry's before the step fails.  These
#: are absolute seconds, so the comparison means something only on
#: hardware like the last entry's; a deliberate move to slower hardware
#: needs a fresh entry committed from it.
COLD_REGRESSION_CEILING = 1.25

#: Fig. 8 sweep points (node counts); 128 nodes is the paper's headline
#: scale and this simulator's largest iteration count (5657 blocks).
NODE_COUNTS = [1, 8, 128]


def sweep_config(nnodes: int, n_single: int = 256_000,
                 nb: int = 512) -> PerfConfig:
    """The exact config ``weak_scaling`` builds for this node count."""
    gpus = crusher_cluster(nnodes).node.gpus
    p, q = choose_grid(nnodes * gpus)
    pl, ql = (p, q) if nnodes == 1 else node_local_grid(p, q, gpus)
    return PerfConfig(n=scaled_n(nnodes, n_single, nb), nb=nb,
                      p=p, q=q, pl=pl, ql=ql)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_point(nnodes: int, repeats: int = 3) -> dict:
    """Time both engines on one Fig. 8 sweep point."""
    cfg = sweep_config(nnodes)
    cluster = crusher_cluster(nnodes)

    full_s, full = _best_of(
        lambda: simulate_run(cfg, cluster, fidelity="full"), max(2, repeats - 1)
    )

    def fast_cold():
        run_cost_arrays.cache_clear()
        return simulate_run(cfg, cluster, fidelity="fast")

    cold_s, fast = _best_of(fast_cold, repeats)
    warm_s, _ = _best_of(
        lambda: simulate_run(cfg, cluster, fidelity="fast"), repeats
    )
    arrays = run_cost_arrays(cfg, cluster)
    costs = arrays.to_iter_costs()
    engine_s, _ = _best_of(lambda: simulate(build_run(costs)),
                           max(2, repeats - 1))
    evaluate_s, _ = _best_of(lambda: evaluate(arrays), repeats)
    return {
        "nnodes": nnodes,
        "n": cfg.n,
        "grid": f"{cfg.p}x{cfg.q}",
        "iterations": cfg.nblocks,
        "full_s": round(full_s, 6),
        "fast_cold_s": round(cold_s, 6),
        "fast_warm_s": round(warm_s, 6),
        "engine_s": round(engine_s, 6),
        "evaluate_s": round(evaluate_s, 6),
        "timeline_speedup": round(engine_s / evaluate_s, 2),
        "makespan_equal": fast.makespan == full.makespan,
        "score_equal": fast.score_tflops == full.score_tflops,
    }


def run_all(repeats: int = 3) -> dict:
    return {
        "t": time.time(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "repeats": repeats,
        "python": sys.version.split()[0],
        "points": [run_point(nnodes, repeats) for nnodes in NODE_COUNTS],
    }


def load_trajectory(path: pathlib.Path = TRAJECTORY) -> list:
    """The committed trajectory (empty if missing or unreadable)."""
    try:
        history = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    return history if isinstance(history, list) else []


def append_trajectory(entry: dict, path: pathlib.Path = TRAJECTORY) -> list:
    """Append one benchmark entry to the committed trajectory file."""
    history = load_trajectory(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return history


def check_entry(entry: dict, previous: dict | None = None) -> None:
    """The claims every trajectory entry must satisfy.

    ``previous`` is the last committed entry; its cold fast-run seconds
    are the regression baseline.
    """
    points = entry["points"]
    assert [pt["nnodes"] for pt in points] == NODE_COUNTS
    baseline = {pt["nnodes"]: pt["fast_cold_s"]
                for pt in (previous or {}).get("points", [])}
    for pt in points:
        name = f"{pt['nnodes']}-node"
        assert pt["makespan_equal"], \
            f"{name}: fast and full engines disagree on makespan"
        assert pt["score_equal"], \
            f"{name}: fast and full engines disagree on the score"
        assert pt["timeline_speedup"] >= TIMELINE_SPEEDUP_FLOOR, \
            f"{name}: closed-form timeline only {pt['timeline_speedup']}x" \
            f" faster than the object engine, floor is" \
            f" {TIMELINE_SPEEDUP_FLOOR}x ({pt['engine_s']}s build+simulate" \
            f" vs {pt['evaluate_s']}s evaluate)"
        assert pt["fast_warm_s"] * 0.9 <= pt["fast_cold_s"], \
            f"{name}: warm runs slower than cold -- memoization broken?" \
            f" ({pt['fast_warm_s']}s warm vs {pt['fast_cold_s']}s cold)"
        if pt["nnodes"] in baseline:
            ceiling = COLD_REGRESSION_CEILING * baseline[pt["nnodes"]]
            assert pt["fast_cold_s"] <= ceiling, \
                f"{name}: cold fast run {pt['fast_cold_s']}s is more than" \
                f" {COLD_REGRESSION_CEILING}x the last committed entry's" \
                f" {baseline[pt['nnodes']]}s"


def test_sim_speed_trajectory():
    """CI smoke: time the sweep points, check the gates, append trajectory."""
    entry = run_all(repeats=3)
    history = load_trajectory()
    check_entry(entry, history[-1] if history else None)
    append_trajectory(entry)
    write_artifact("sim_speed.json", json.dumps(entry, indent=1,
                                                sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description="simulator-speed benchmark")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per engine (best-of)")
    parser.add_argument("--no-append", action="store_true",
                        help="print the entry without touching the"
                             " trajectory file")
    args = parser.parse_args()
    entry = run_all(repeats=args.repeats)
    history = load_trajectory()
    check_entry(entry, history[-1] if history else None)
    if not args.no_append:
        append_trajectory(entry)
        write_artifact("sim_speed.json", json.dumps(entry, indent=1,
                                                    sort_keys=True))
    for pt in entry["points"]:
        print(f"{pt['nnodes']:>4} node(s) N={pt['n']:>8}"
              f" ({pt['iterations']} iters): full {pt['full_s']*1e3:8.1f} ms,"
              f" fast cold {pt['fast_cold_s']*1e3:7.2f} ms,"
              f" warm {pt['fast_warm_s']*1e3:7.2f} ms;"
              f" timeline {pt['engine_s']*1e3:8.1f} ms engine vs"
              f" {pt['evaluate_s']*1e3:6.2f} ms closed form"
              f" ({pt['timeline_speedup']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
