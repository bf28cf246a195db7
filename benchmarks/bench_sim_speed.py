"""Pricing-speed benchmark: what one ``simulate_run`` costs, cold and warm.

For each Fig. 8 sweep point this benchmark times the whole
``simulate_run`` two ways -- *cold* (memo cleared first, so the time
includes pricing every cost array) and *warm* (arrays cached, the
realistic service-tier steady state) -- plus the closed-form timeline
(``sched.fastpath.evaluate``) alone, the share of a cold run that is not
pricing.  It also records how many bytes the memoized cost arrays of
each point hold (``memo_bytes``).

The committed trajectory (``BENCH_sim_speed.json`` at the repo root)
records every entry so a regression is a diff, not an anecdote; entries
from before the object engine left the pricing path also carry its
timings (``full_s``, ``engine_s``, ``timeline_speedup``).  The gates: a
cold run must cost no more than 1.25x the last committed entry's, a
warm run must not be slower than a cold one, the timeline must cost at
most 0.75x as much per iteration at 128 nodes as at 1 node, and the
128-node memo entry must hold at most 1/8 of its per-iteration size.

Run directly for more repeats::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py --repeats 5

or through pytest (the CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_speed.py -q
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import pathlib
import sys
import time

from repro.machine.frontier import crusher_cluster
from repro.perf.hplsim import simulate_run
from repro.perf.ledger import run_cost_arrays
from repro.perf.scaling import weak_scaling
from repro.sched.fastpath import CostArrays, evaluate

try:
    from .conftest import write_artifact
except ImportError:  # direct `python benchmarks/bench_sim_speed.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import write_artifact

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_sim_speed.json"

#: A cold run (pricing + timeline + report) may cost at most this
#: multiple of the last committed entry's before the step fails.  These
#: are absolute seconds, so the comparison means something only on
#: hardware like the last entry's; a deliberate move to slower hardware
#: needs a fresh entry committed from it.
COLD_REGRESSION_CEILING = 1.25

#: The timeline's seconds per iteration at 128 nodes may be at most this
#: fraction of its seconds per iteration at 1 node.  Long segments are
#: resolved regime by regime, so the cost per iteration falls with run
#: length; both sides come from one run, so the speed of the box cancels.
EVALUATE_SCALING_CEILING = 0.75

#: The 128-node memo entry may hold at most this fraction of the bytes of
#: its cost columns stored once per iteration (float64 each).  Block-cyclic
#: ownership repeats sizes over runs of iterations, and the memo keeps one
#: row per run; bytes are exact, so the speed of the box does not enter.
MEMO_CEILING = 1 / 8
COST_COLUMNS = sum(f.name not in ("runs", "mode", "preamble")
                   for f in dataclasses.fields(CostArrays))

#: Fig. 8 sweep points (node counts); 128 nodes is the paper's headline
#: scale and this simulator's largest iteration count (5657 blocks).
NODE_COUNTS = [1, 8, 128]


def _best_of(fn, repeats: int) -> float:
    """Best wall seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_point(nnodes: int, repeats: int = 3) -> dict:
    """Time one Fig. 8 sweep point."""
    cfg = weak_scaling([nnodes])[0].report.cfg
    cluster = crusher_cluster(nnodes)

    def cold():
        run_cost_arrays.cache_clear()
        simulate_run(cfg, cluster)

    # Cold last: the earlier timings double as the process's warm-up.
    arrays = run_cost_arrays(cfg, cluster)
    evaluate_s = _best_of(lambda: evaluate(arrays), repeats)
    warm_s = _best_of(lambda: simulate_run(cfg, cluster), repeats)
    cold_s = _best_of(cold, repeats)
    return {
        "nnodes": nnodes,
        "n": cfg.n,
        "grid": f"{cfg.p}x{cfg.q}",
        "iterations": cfg.nblocks,
        "fast_cold_s": round(cold_s, 6),
        "fast_warm_s": round(warm_s, 6),
        "evaluate_s": round(evaluate_s, 6),
        "memo_bytes": arrays.nbytes,
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

    ``previous`` is the last committed entry; its cold-run seconds are
    the regression baseline.
    """
    points = entry["points"]
    assert [pt["nnodes"] for pt in points] == NODE_COUNTS
    baseline = {pt["nnodes"]: pt["fast_cold_s"]
                for pt in (previous or {}).get("points", [])}
    for pt in points:
        name = f"{pt['nnodes']}-node"
        assert pt["fast_warm_s"] * 0.9 <= pt["fast_cold_s"], \
            f"{name}: warm runs slower than cold -- memoization broken?" \
            f" ({pt['fast_warm_s']}s warm vs {pt['fast_cold_s']}s cold)"
        if pt["nnodes"] in baseline:
            ceiling = COLD_REGRESSION_CEILING * baseline[pt["nnodes"]]
            assert pt["fast_cold_s"] <= ceiling, \
                f"{name}: cold run {pt['fast_cold_s']}s is more than" \
                f" {COLD_REGRESSION_CEILING}x the last committed entry's" \
                f" {baseline[pt['nnodes']]}s"
    per_iteration = {pt["nnodes"]: pt["evaluate_s"] / pt["iterations"]
                     for pt in points}
    ratio = per_iteration[128] / per_iteration[1]
    assert ratio <= EVALUATE_SCALING_CEILING, \
        f"timeline per iteration: 128 nodes cost {ratio:.2f}x 1 node's," \
        f" more than {EVALUATE_SCALING_CEILING} -- speculation off?"
    (last,) = [pt for pt in points if pt["nnodes"] == 128]
    expanded = last["iterations"] * COST_COLUMNS * 8
    assert last["memo_bytes"] <= MEMO_CEILING * expanded, \
        f"128-node memo entry holds {last['memo_bytes']} bytes, more than" \
        f" {MEMO_CEILING} of {expanded} -- repeats stored again?"


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
                        help="timing repeats (best-of)")
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
              f" ({pt['iterations']} iters):"
              f" cold {pt['fast_cold_s']*1e3:7.2f} ms,"
              f" warm {pt['fast_warm_s']*1e3:7.2f} ms,"
              f" of which timeline {pt['evaluate_s']*1e3:6.2f} ms,"
              f" memo {pt['memo_bytes'] / 1e3:6.1f} KB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
