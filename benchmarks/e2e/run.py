"""The benchmark's one command.

Driver form (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload sim_closed --seed 1 \\
        --seconds 15 --trace 0

Human form (every workload, every metric by name with its unit; add
``--trace`` to repeat the set with spans on and print the per-layer
metrics)::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1 [--trace]

Each workload runs in a fresh Python subprocess.  The launcher in this
file imports nothing of the program, so what it times as ``setup_s`` --
process start to "first timed op can be issued" -- includes the
interpreter, the imports, the ``repro serve`` spawn and the warm-up ops.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from benchmarks.e2e import stats  # noqa: E402  (stdlib only)

#: name -> (module, class); a child imports only its own workload's
#: module, so set-up time and memory are that workload's.
WORKLOADS = {
    "sim_closed": ("service_load", "SimClosed"),
    "sweep_burst": ("service_load", "SweepBurst"),
    "fig8_sweep": ("inproc", "Fig8Sweep"),
    "fig7_full": ("inproc", "Fig7Full"),
    "numeric_hpl": ("inproc", "NumericHpl"),
}
#: Set-ups timed per run; the median is reported.
SETUP_REPEATS = 3
#: A traced run spends this share of --seconds in each of its two
#: windows (spans off, spans on); the rest of its time goes to probes.
TRACED_WINDOW_SHARE = 1 / 3
#: Probe window for service stage times when the workload has no server.
SERVICE_PROBE_S = 3.0
CHILD_LIMIT_S = 170.0
READY = "READY"


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child: one workload in this process
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int, rec, scratch: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(f"benchmarks.e2e.{module}"),
                   cls)(seed, rec, scratch)


def layer_metrics(workload, seed: int, scratch: str) -> dict:
    """Every per-layer metric, whatever the workload.

    A metric comes from the workload's own traced window when that window
    exercises the layer, and from a short fixed probe otherwise, so each
    (metric, workload) pair is always reported and means the same thing
    on both commits of a comparison.
    """
    from benchmarks.e2e import inproc, layers, service_load, verify
    from benchmarks.e2e.spans import Recorder

    out: dict[str, float] = {}
    untraced, traced = workload.throughput(0), workload.throughput(1)
    out["trace_overhead_pct"] = 100.0 * (untraced - traced) / untraced

    # (workload, window index) observed for stage times, and the
    # sim_closed-shaped one compute_fraction is defined on.
    probe = None
    try:
        if isinstance(workload, service_load.SimClosed):
            closed = (workload, 1)
        else:
            probe = service_load.SimClosed(
                seed + 1, Recorder(True), os.path.join(scratch, "probe"))
            probe.setup()
            probe.window(SERVICE_PROBE_S)
            probe.check()
            closed = (probe, 0)
        service, window = (
            (workload, 1)
            if isinstance(workload, service_load.ServiceWorkload)
            else closed)
        out.update(service.observed_metrics(window))
        out["service.http.floor_ms"] = service.http_floor_ms()
        jobs = [op for op in closed[0].window_ops(closed[1]) if op.ok]
        latency = stats.median(op.latency_ms for op in jobs)
        out["perf.compute_fraction"] = layers.warm_pricing_ms(
            [op.input for op in jobs]) / latency
    finally:
        if probe is not None:
            probe.close()

    out.update(layers.service_steps(seed, scratch))
    out.update(layers.simulator(seed))

    if isinstance(workload, inproc.NumericHpl):
        # Both windows: spans cost a solve nothing, and the exact counts
        # are taken on the first solve, which must be the seed's first.
        solves = [(op.end - op.start, op.output)
                  for op in workload.ops if op.ok]
    else:
        hpl = inproc.NumericHpl(seed + 1, Recorder(False), scratch)
        hpl.setup()
        (op,) = hpl.one_cycle(0)
        if verify.hpl_wrong(op.output, check_solution=True):
            raise verify.CheckFailed("probe solve failed verification")
        solves = [(op.end - op.start, op.output)]
    out.update(layers.numeric(solves))
    return out


def child_main(args) -> int:
    from benchmarks.e2e.spans import Recorder, write_trace

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    rec = Recorder(False)
    seed = args.seed[0]
    workload = make_workload(args.workload, seed, rec, args.scratch)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            workload.window(args.seconds * TRACED_WINDOW_SHARE)
            rec.enabled = True
            workload.window(args.seconds * TRACED_WINDOW_SHARE)
        else:
            workload.window(args.seconds)
        failed_in_flight = sum(not op.ok for op in workload.ops)
        workload.check()
        failed = sum(not op.ok for op in workload.ops)
        if args.trace:
            declared = contract["per_layer"]
            values = layer_metrics(workload, seed, args.scratch)
            os.makedirs(OUT, exist_ok=True)
            write_trace(rec.spans,
                        os.path.join(OUT, f"trace_{args.workload}.json"))
        else:
            declared = [m for m in contract["end_to_end"]
                        if m["name"] != "setup_s"]  # the launcher's
            values = workload.end_to_end()
        missing = sorted({m["name"] for m in declared} - set(values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
        ops = workload.window_ops(0)
        samples = workload.latency_samples(ops)
        tail = stats.tail_percentile(len(samples))
        info = {
            "latency_samples": len(samples),
            "notes": sorted({op.note for op in workload.ops if op.note}),
        }
        if tail is not None:
            info[f"latency_p{tail:g}_ms"] = stats.percentile(
                [v for _, v in samples], tail)
        if hasattr(workload, "checksum"):
            info["makespan_checksum"] = workload.checksum
        print(json.dumps({
            "correct": failed == failed_in_flight,
            "attempted": len(workload.ops),
            "failed": failed,
            "metrics": metrics,
            "info": info,
        }))
        return 0
    finally:
        workload.close()


# ---------------------------------------------------------------------------
# launcher: spawn children, time set-up, print the result
# ---------------------------------------------------------------------------


def spawn_child(workload: str, seed: int, seconds: float, trace: bool,
                scratch: str, setup_only: bool) -> tuple[float, dict | None]:
    """Run one child; returns (seconds to READY, its result or None)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scratch", scratch]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline().strip()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the child stops its server on SIGTERM
        proc.communicate()
        raise RuntimeError(f"{workload}: child exceeded {CHILD_LIMIT_S:g}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != READY or proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: child failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One full run of one workload: result dict with ``info`` attached."""
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        setups = []
        # A traced run reports no setup_s, so it sets up once.
        for _ in range(0 if trace else SETUP_REPEATS - 1):
            ready_s, _ = spawn_child(workload, seed, seconds, trace,
                                     os.path.join(scratch, "setup"), True)
            setups.append(ready_s)
            shutil.rmtree(os.path.join(scratch, "setup"), ignore_errors=True)
        ready_s, result = spawn_child(workload, seed, seconds, trace,
                                      os.path.join(scratch, "run"), False)
        setups.append(ready_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if result is None:
        raise RuntimeError(f"{workload}: child printed no result")
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": stats.median(setups), "unit": "s"}
    return result


def print_human(workload: str, result: dict, declared: list[dict]) -> None:
    info = result["info"]
    print(f"\n== {workload}: attempted {result['attempted']},"
          f" failed {result['failed']},"
          f" correct {result['correct']} ==")
    for spec in declared:
        got = result["metrics"][spec["name"]]
        bound = (f"  (bound {spec['bound']:.0%}, {spec['better']} is better)"
                 if "bound" in spec else "")
        extra = ""
        if spec["name"] == "latency_p50_ms":
            extra = f"  [n={info['latency_samples']}" + "".join(
                f", {k[len('latency_'):-len('_ms')]}={v:.4g} ms"
                for k, v in info.items()
                if k.startswith("latency_p")) + "]"
        print(f"  {spec['name']:<42} {got['value']:>14.6g} {got['unit']}"
              f"{extra}{bound}")
    if "makespan_checksum" in info:
        print(f"  makespan checksum (seed-determined): "
              f"{info['makespan_checksum']}")
    for note in info["notes"]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="workload seed; the human form takes several")
    parser.add_argument("--seconds", "--window-s", type=float, default=None,
                        help="timed window per workload"
                             " (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="PATH",
                        help="human form: append each run to this result"
                             " set (JSON lines, input of compare.py)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print("benchmarks/e2e: the program under test (src/repro) is not"
              " in this checkout", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.child:
        return child_main(args)

    if args.workload:  # driver form
        result = run_workload(args.workload, args.seed[0], args.seconds,
                              bool(args.trace))
        del result["info"]
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for seed in args.seed:
        for traced in ((False, True) if args.trace else (False,)):
            declared = contract["per_layer" if traced else "end_to_end"]
            print(f"\n#### {'per-layer (traced)' if traced else 'end-to-end'}"
                  f" set, seed {seed}, window {args.seconds:g} s ####")
            for workload in WORKLOADS:
                result = run_workload(workload, seed, args.seconds, traced)
                print_human(workload, result, declared)
                ok = ok and result["correct"]
                if args.json:
                    with open(args.json, "a") as fh:
                        fh.write(json.dumps({
                            "workload": workload, "seed": seed,
                            "trace": int(traced), "seconds": args.seconds,
                            "result": result}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
