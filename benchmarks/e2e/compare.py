"""Compare two result sets: one row per (end-to-end metric, workload).

A result set is a JSON-lines file written by ``run.py --json PATH``: one
line per run, ``{"workload", "seed", "trace", "result"}``.  Collect a set
by running several seeds into one file; then::

    python -m benchmarks.e2e.compare base.jsonl change.jsonl

Each row shows both medians and quartiles, the bound ``BENCHMARK.json``
fixes and a verdict:

* ``worse``      -- the change's median is worse than the base's by more
  than the bound (the command then exits non-zero);
* ``unresolved`` -- the run-to-run spread of either set exceeds the bound
  and the two sets' runs overlap, so the data cannot tell;
* ``better``     -- every run of the change beats every run of the base,
  or the median gain exceeds the base's own interquartile distance;
* ``same``       -- none of the above.

Per-layer counts that must repeat exactly (same seed, same code) are
checked too when both sets hold traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e import stats  # noqa: E402

#: Per-layer metrics that are counts or simulated statistics: the same
#: seed on the same code must reproduce them to the last digit.
EXACT = (
    "blas.flops", "simmpi.msgs_sent", "simmpi.bytes_sent",
    "sched.tasks_per_run", "perf.sim.score_tflops_1node",
    "perf.sim.score_pflops_128node", "perf.sim.hidden_time_fraction_1node",
    "perf.sim.efficiency_128node", "perf.sim.model_abs_err_pct",
)


def load_set(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values_of(runs: list[dict], workload: str, metric: str,
              trace: int = 0) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["result"]["metrics"]]


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    """Classify ``change`` against ``base`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, change_med = stats.median(base), stats.median(change)
    worsening = sign * (change_med - base_med) / abs(base_med)
    clear_win = max(sign * v for v in change) < min(sign * v for v in base)
    clear_loss = min(sign * v for v in change) > max(sign * v for v in base)
    noisy = len(base) >= 2 and len(change) >= 2 and max(
        stats.spread(base), stats.spread(change)) > bound
    if noisy and not (clear_win or clear_loss):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if clear_win and len(base) >= 2:
        return "better"
    if len(base) >= 2:
        q1, _, q3 = stats.quartiles(base)
        if -worsening * abs(base_med) > q3 - q1:
            return "better"
    return "same"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base: list[dict], change: list[dict], contract: dict,
            out=sys.stdout) -> int:
    """Print the table; returns the number of ``worse`` rows."""
    worse = 0
    print(f"{'metric':<18}{'workload':<13}{'base median [q1, q3]':<30}"
          f"{'change median [q1, q3]':<30}{'bound':>6}  verdict", file=out)
    for spec in contract["end_to_end"]:
        for workload in (w["name"] for w in contract["workloads"]):
            a = values_of(base, workload, spec["name"])
            b = values_of(change, workload, spec["name"])
            if not a or not b:
                continue
            result = verdict(a, b, spec["better"], spec["bound"])
            worse += result == "worse"
            print(f"{spec['name']:<18}{workload:<13}{_quartiles(a):<30}"
                  f"{_quartiles(b):<30}{spec['bound']:>6.0%}  {result}",
                  file=out)
    for name in EXACT:
        for workload in (w["name"] for w in contract["workloads"]):
            pairs = {}
            for side, runs in (("base", base), ("change", change)):
                for run in runs:
                    if run["workload"] == workload and run["trace"] == 1:
                        pairs.setdefault(run["seed"], {})[side] = \
                            run["result"]["metrics"][name]["value"]
            both = [p for p in pairs.values() if len(p) == 2]
            if not both:
                continue
            same = all(p["base"] == p["change"] for p in both)
            worse += not same
            print(f"{name:<42}{workload:<13}"
                  f"{'identical' if same else 'DIFFERS'}"
                  f" over {len(both)} seed(s)", file=out)
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    worse = compare(load_set(args.base), load_set(args.change), contract)
    print(f"{worse} row(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
