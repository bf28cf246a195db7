"""The service smokes: the job path end to end, against real processes.

``python -m benchmarks.smoke <name>`` runs one smoke and ``--all`` runs
every one, in a scratch directory.  A smoke yields its start, drive and
check lines; the driver stops what it started between drive and check.
Every ``repro`` command a smoke runs is a template in :data:`COMMANDS`,
which ``tests/test_cli.py`` parses with ``repro.cli.build_parser()``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from collections import Counter
from contextlib import closing
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

SERVE = ("serve", "--workdir", "{workdir}", "--port", "0", "--workers")
SWEEP = ("--kind", "sim", "--sweep", "-N", "512,1024", "-NB", "64,128",
         "-P", "2", "-Q", "2")
POOLS = {f"workers-{x}": ("workers", "--url", "{url}", "-n", "2", "--name",
                          f"ci-{x}") for x in "ab"}

#: smoke -> step -> the ``repro`` argv it runs.  ``{field}``s are filled
#: in at run time; ``{ids}`` stands for a list of job ids.
COMMANDS = {
    "job-path": {"serve": (*SERVE, "2")},
    "load": {"serve": (*SERVE, "2", "--backoff", "0.01")},
    "fleet-drain": {"serve": (*SERVE, "0"), **POOLS,
                    "submit": ("submit", "--url", "{url}", *SWEEP),
                    "status": ("status", "--url", "{url}")},
    "local-drain": {
        "submit": ("submit", "--workdir", "{workdir}", *SWEEP),
        "workers": ("workers", "--workdir", "{workdir}", "-n", "2"),
        "follow": ("status", "--workdir", "{workdir}", "--follow", "{ids}"),
        "status": ("status", "--workdir", "{workdir}"),
        "results": ("results", "--workdir", "{workdir}", "--json")},
    "campaign-drain": {
        "serve": (*SERVE, "0"), **POOLS,
        "submit": ("campaign", "submit", "--spec", "{spec}", "--url", "{url}"),
        "status": ("campaign", "status", "{cid}", "--url", "{url}"),
        "results": ("results", "--url", "{url}", "--json")},
    "event-resume": {
        "serve": (*SERVE, "2", "--backoff", "0.01"),
        "serve-again": ("serve", "--workdir", "{workdir}", "--port", "{port}",
                        "--workers", "2", "--backoff", "0.01")},
}


def argv(smoke: str, step: str, **fields) -> list[str]:
    """One step's ``repro`` argv with its fields filled in."""
    out: list[str] = []
    for token in COMMANDS[smoke][step]:
        out += fields["ids"] if token == "{ids}" else [token.format(**fields)]
    return out


class Smoke:
    """One smoke's scratch directory and the processes it started."""

    def __init__(self, name: str, root: Path) -> None:
        self.name, self.workdir = name, root / name / "svc"
        self.workdir.parent.mkdir()
        self.procs: list[subprocess.Popen] = []

    def spawn(self, step: str, **fields) -> subprocess.Popen:
        """Start one step; read its stdout with :meth:`finish`."""
        cmd = [sys.executable, "-m", "repro", *argv(self.name, step, **fields)]
        self.procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                           text=True, env=ENV))
        return self.procs[-1]

    def finish(self, proc: subprocess.Popen) -> str:
        """A step's stdout once it has exited 0."""
        out = proc.communicate(timeout=240)[0]
        assert proc.returncode == 0, (proc.args[3:], proc.returncode, out)
        return out

    def repro(self, step: str, **fields) -> str:
        return self.finish(self.spawn(step, **fields))

    def serve(self, step: str = "serve", **fields):
        """Start ``repro serve``; ``(process, url)`` once healthz answers."""
        proc = self.spawn(step, workdir=self.workdir, **fields)
        line = proc.stdout.readline()  # the socket is bound once this prints
        url = re.match(r"serving .* on (\S+) ", line)
        assert url, f"{step} printed {line!r}, exit {proc.poll()}"
        urllib.request.urlopen(url[1] + "/v1/healthz", timeout=30).close()
        return proc, url[1]

    def stop(self) -> str:
        """Stop what this smoke started, then fail if any ``repro serve`` /
        ``repro workers`` process (runner children carry their
        supervisor's command line) is still alive 3 s later."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 3.0
        while True:
            left = subprocess.run(["pgrep", "-fa", "repro (serve|workers)"],
                                  capture_output=True, text=True).stdout
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        assert not left, f"alive 3 s after stop:\n{left}"
        return f"{len(self.procs)} process(es) stopped, none survives"


def spawned(pools: str) -> list[int]:
    """Each pool summary line's count of runner children forked."""
    return [int(k) for k in re.findall(r" (\d+) spawned", pools)]


def job_path(s: Smoke):
    """300 sequential submit -> wait jobs from one client against a real
    ``repro serve``.  Every assertion is a count or a ratio inside this
    one run, never an absolute time: the client kept its connection
    (>= 900 requests over <= 5 connections), the server's peak RSS
    stopped growing with requests handled, a job costs the same late as
    early (no cost that grows with the audit log), and the log -- the
    store's events table, no file -- holds each job's four events once."""
    from repro.service.http import ServiceClient

    serve, url = s.serve()
    yield url
    status = Path(f"/proc/{serve.pid}/status")
    client, latencies, rss = ServiceClient(url), [], {}
    for i in range(300):
        start = time.perf_counter()
        # Distinct payloads (no cache hit, no dedup) of one size.
        jid = client.submit("sim", {"n": 8192, "nb": 128, "p": 2, "q": 2,
                                    "split_fraction": 0.2 + i / 1000}).new[0]
        assert client.wait([jid], timeout=60)[jid].state == "DONE", i
        latencies.append(time.perf_counter() - start)
        if i + 1 in (50, 300):
            rss[i + 1] = int(re.search(r"VmHWM:\s+(\d+)",
                                       status.read_text())[1])
    http = client.healthz()["http"]
    client.close()
    early = statistics.median(latencies[50:100])
    late = statistics.median(latencies[250:300])
    yield (f"http: {http}  VmHWM kB: {rss}"
           f"  median job ms: {early * 1e3:.1f} -> {late * 1e3:.1f}")
    assert http["requests"] >= 900 and http["connections"] <= 5, http
    assert rss[300] - rss[50] < 1536, rss
    assert late <= 1.5 * early, (early, late)
    with closing(sqlite3.connect(s.workdir / "jobs.sqlite")) as db:
        states = dict(db.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"))
        jobs = [job for (job,) in db.execute("SELECT id FROM jobs")]
        logged = Counter(db.execute("SELECT job, event FROM events"))
    assert states == {"DONE": 300}, states
    bad = [(job, event) for job in jobs
           for event in ("submitted", "claimed", "launched", "done")
           if logged[job, event] != 1]
    assert not bad, bad[:10]
    assert not (s.workdir / "events.jsonl").exists()
    yield "300 DONE jobs, one submitted/claimed/launched/done each"


def load(s: Smoke):
    """A 30 s storm from the real load generator against a coordinator
    with 2 in-process workers: at least the benchmark's submits/s floor,
    no non-503 5xx, and no loadgen connection error."""
    from repro.service.loadgen import bad_5xx, run_storm

    _, url = s.serve()
    yield url
    report = run_storm(url, duration=30.0, processes=2, concurrency=6, seed=42)
    yield (f"submits/s: {report['submits_per_s']}"
           f"  codes: {report['status_codes']}")
    assert report["submits_per_s"] >= 25.0, report["submits_per_s"]
    assert bad_5xx(report) == 0, report["status_codes"]
    assert not report["errors"], report["errors"][:5]
    yield ">= 25 submits/s, no non-503 5xx, no loadgen error"


def fleet_drain(s: Smoke):
    """One coordinator and two ``repro workers --url`` processes drain a
    4-point sweep; each pool forks at most one runner child per slot."""
    _, url = s.serve()
    yield url
    s.repro("submit", url=url)
    other = s.spawn("workers-a", url=url)
    pools = s.repro("workers-b", url=url) + s.finish(other)
    status = s.repro("status", url=url)
    yield " | ".join(pools.splitlines())
    assert len(spawned(pools)) == 2 and max(spawned(pools)) <= 2, pools
    assert "4 done" in status, status
    yield f"spawned {spawned(pools)}, 4 done"


def local_drain(s: Smoke):
    """The fleet drain's commands with ``--workdir`` only: every service
    command is written once against the facade, so this drives its
    in-process backend, and the ``--url`` smokes drive it over HTTP."""
    ids = re.findall(r"queued\s+(\S+)", s.repro("submit", workdir=s.workdir))
    yield f"{len(ids)} jobs queued"
    pool = s.repro("workers", workdir=s.workdir)
    s.repro("follow", workdir=s.workdir, ids=ids)
    status = s.repro("status", workdir=s.workdir)
    results = json.loads(s.repro("results", workdir=s.workdir))
    yield pool.splitlines()[0]
    assert len(spawned(pool)) == 1 and spawned(pool)[0] <= 2, pool
    assert "4 done" in status, status
    assert len(results) == 4, results
    yield f"spawned {spawned(pool)}, status --follow ended, 4 done, 4 results"


CAMPAIGN = {"name": "ci-tune-then-scale", "stages": [
    {"name": "grid", "sweep": {"kind": "probe", "axes": {"tag": [1, 5, 3]},
                               "base": {"behavior": "echo"}}},
    {"name": "pick", "after": ["grid"], "kind": "reduce",
     "payload": {"metric": "tag", "mode": "max"}},
    {"name": "study", "after": ["pick"], "kind": "probe",
     "payload": {"behavior": "echo", "tag": {"$winner": "tag"}, "x": 7}}]}


def campaign_drain(s: Smoke):
    """One request expands a 3-stage tune-then-scale campaign; two
    remote workers drain the DAG (later stages are born BLOCKED and
    release as their parents finish), and the final stage's result has
    the winner resolved into it."""
    _, url = s.serve()
    spec = s.workdir.parent / "spec.json"
    spec.write_text(json.dumps(CAMPAIGN))
    out = s.repro("submit", spec=spec, url=url)
    cid = out.split()[1]
    study = re.search(r"stage study .* (\S+)$", out, re.M)[1]
    yield f"{url}: campaign {cid}, study job {study}"
    other = s.spawn("workers-a", url=url)
    s.repro("workers-b", url=url)
    s.finish(other)
    status = s.repro("status", cid=cid, url=url)
    results = json.loads(s.repro("results", url=url))
    yield status.splitlines()[0]
    assert "state=done" in status, status
    assert results[study] == {"tag": 5, "x": 7}, results
    yield f"state=done, study result {results[study]}"


def event_resume(s: Smoke):
    """The coordinator is SIGKILLed while a watch() consumer long-polls
    the feed; a replacement starts on the same port and workdir, and the
    consumer, restarting watch() from the cursor of the last event it
    received, must deliver the full log exactly once."""
    from repro.errors import ServiceError
    from repro.service.http import ServiceClient

    serve, url = s.serve()
    yield url
    client = ServiceClient(url, timeout=10.0)
    ids = [r.new[0] for r in client.submit_many([
        {"kind": "probe",
         "payload": {"behavior": "sleep", "seconds": 0.25, "tag": i}}
        for i in range(10)])]
    streamed, stop = [], threading.Event()

    def consume():
        watcher, last = ServiceClient(url, timeout=5.0), "begin"
        while not stop.is_set():
            try:
                for v in watcher.watch(cursor=last, poll=0.3):
                    streamed.append(v)
                    last = v.cursor
                    if stop.is_set():
                        return
            except ServiceError as exc:
                if type(exc) is not ServiceError:
                    raise
                time.sleep(0.1)  # unreachable: resume from last

    threading.Thread(target=consume, daemon=True).start()
    try:
        time.sleep(1.0)
        assert streamed, "nothing streamed before the kill"
        serve.kill()
        s.serve("serve-again", port=url.rsplit(":", 1)[1])
        client.wait(ids, timeout=60.0)  # WaitTimeout: drain incomplete
        truth, cursor = [], "begin"
        while True:
            batch, cursor, timed_out = client.events(cursor=cursor)
            truth.extend(batch)
            if timed_out or not batch:
                break
        want = [v.cursor for v in truth]
        client.close()
        deadline = time.monotonic() + 30.0
        while (time.monotonic() < deadline
               and [v.cursor for v in streamed] != want):
            time.sleep(0.1)
    finally:  # the consumer ends with the smoke, pass or fail
        stop.set()
    yield f"coordinator replaced; {len(streamed)} streamed, {len(want)} logged"
    got = [v.cursor for v in streamed]
    assert len(got) == len(set(got)), "duplicated events"
    assert got == want, f"{len(got)} streamed vs {len(want)} logged"
    terminal = [v.job_id for v in streamed if v.terminal and v.job_id in ids]
    assert sorted(set(terminal)) == sorted(ids), "missed transitions"
    assert len(terminal) == len(ids), "duplicated transitions"
    yield (f"resumed stream matched the log: {len(got)} events,"
           f" {len(ids)} jobs, exactly once")


EXAMPLES = ("quickstart", "single_node_breakdown", "panel_threading",
            "tuning_sweep", "multi_node_scaling", "frontier_full_system",
            "future_architectures", "service_sweep", "service_campaign")


def examples(s: Smoke):
    """The examples are API users nothing else runs: quickstart reads
    ``Timers.total`` and ``measured_breakdown(result.timers)``.  The two
    service examples start an in-process HTTP coordinator and worker
    pool, none of whose runner children may outlive them."""
    yield f"{len(EXAMPLES)} examples"
    for name in EXAMPLES:
        subprocess.run([sys.executable, REPO / "examples" / f"{name}.py"],
                       stdout=subprocess.DEVNULL, env=ENV, check=True,
                       timeout=240)
    yield "every example exited 0"
    yield "no runner child outlived an example"


SMOKES = {"job-path": job_path, "load": load, "fleet-drain": fleet_drain,
          "local-drain": local_drain, "campaign-drain": campaign_drain,
          "event-resume": event_resume, "examples": examples}


def run(name: str, root: Path) -> None:
    """One smoke, a line per stage; it stops what it started, pass or fail."""
    t0, smoke = time.monotonic(), Smoke(name, root)
    stages = SMOKES[name](smoke)

    def stage(label: str, what: str) -> None:
        print(f"{name}: {label:<5} {what}  [{time.monotonic() - t0:.1f} s]",
              flush=True)

    try:
        stage("start", next(stages))
        stage("drive", next(stages))
    finally:
        stage("stop", smoke.stop())
    stage("check", next(stages))


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.smoke")
    parser.add_argument("name", nargs="?", choices=list(SMOKES))
    parser.add_argument("--all", action="store_true", help="run every smoke")
    opts = parser.parse_args(args)
    if (opts.name is None) != opts.all:
        parser.error("give one smoke name or --all")
    sys.path.insert(0, SRC)  # the smokes' clients import this checkout
    failed = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as root:
        for name in SMOKES if opts.all else [opts.name]:
            try:
                run(name, Path(root))
            except Exception as exc:
                traceback.print_exc()
                failed.append(name)
                print(f"FAIL {name}: {exc!r}", flush=True)
    print("failed: " + " ".join(failed) if failed else "all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
