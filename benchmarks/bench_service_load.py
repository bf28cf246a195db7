"""Service-throughput benchmark: storms against live coordinators.

The service-tier analogue of the paper's Fig. 8 sweep: instead of
asking how many nodes one factorization scales over, ask how many
submits per second one coordinator absorbs -- and keep the answer in a
committed trajectory (``BENCH_service_throughput.json`` at the repo
root) so every future PR's regression is a diff, not an anecdote.

Four scenarios, each against a **real** ``repro serve`` subprocess
(so the RSS figures are the coordinator's own, not the harness's):

* ``1shard``  -- storm over a single-workdir coordinator, 2 workers.
* ``3shard``  -- the same storm over ``--shards 3``; sharding should
  hold or raise throughput, never crater it.
* ``admission`` -- a submit-only storm into a low watermark
  (``--max-queue-depth``): the point is the 429 ``overloaded`` path
  *under* load -- rejections are cheap, nothing 500s, and the queue
  still drains afterwards.
* ``watch`` -- a 200-job drain observed by 50 watching clients
  (``GET /v1/events``), compared against the last committed polling
  drain of the same shape (the poll loop itself is gone from the
  clients): watching must cut status-class requests by >= 10x and miss
  zero terminal transitions.

Every scenario records submits/s, per-endpoint p50/p95/p99 latency,
the status-code histogram, queue drain rate, and coordinator RSS
before/after.  Run directly for a longer look::

    PYTHONPATH=src python benchmarks/bench_service_load.py --duration 30

or through pytest (short storms, shape assertions only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_load.py -q
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import threading

from repro.service.http import ServiceClient
from repro.service.loadgen import bad_5xx, measure_drain, run_storm

try:
    from .conftest import write_artifact
except ImportError:  # direct `python benchmarks/bench_service_load.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import write_artifact

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_service_throughput.json"

#: Conservative floor for the pytest gate -- a healthy coordinator on
#: any hardware this runs on manages hundreds of submits/s; tripping
#: this means something is catastrophically wrong, not merely slow.
SUBMITS_PER_S_FLOOR = 25.0


def _start_serve(workdir, shards: int = 1, workers: int = 2,
                 max_queue_depth: int = 0) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "serve", "--workdir",
           str(workdir), "--shards", str(shards), "--port", "0",
           "--workers", str(workers), "--backoff", "0.01"]
    if max_queue_depth:
        cmd += ["--max-queue-depth", str(max_queue_depth)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(REPO_ROOT),
    )
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def _stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)


def run_scenario(workdir, *, shards: int, duration: float,
                 processes: int = 2, concurrency: int = 6,
                 mix: dict | None = None, max_queue_depth: int = 0,
                 drain_timeout: float = 600.0, seed: int = 0) -> dict:
    """One storm + drain against a fresh serve subprocess."""
    proc, url = _start_serve(workdir, shards=shards,
                             max_queue_depth=max_queue_depth)
    try:
        report = run_storm(url, duration=duration, processes=processes,
                           concurrency=concurrency, mix=mix, seed=seed,
                           server_pid=proc.pid)
        report["drain"] = measure_drain(url, timeout=drain_timeout)
        report["shards"] = shards
        report["max_queue_depth"] = max_queue_depth
        return report
    finally:
        _stop(proc)


class _CountingClient(ServiceClient):
    """A :class:`ServiceClient` that tallies requests by class.

    ``status`` counts the polling-style reads (GET queue/job/result),
    ``events`` the event-feed requests; everything else is ``other``.
    The watch-vs-poll scenario's claim is exactly this split.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts = {"status": 0, "events": 0, "other": 0}
        self._lock = threading.Lock()

    def _send(self, request, path, timeout=None):
        if path.startswith("/v1/events"):
            kind = "events"
        elif (request[0] == "GET"
              and path.startswith(("/v1/queue", "/v1/jobs"))):
            kind = "status"
        else:
            kind = "other"
        with self._lock:
            self.counts[kind] += 1
        return super()._send(request, path, timeout=timeout)


def _watch_drain(url: str, *, jobs: int, watchers: int,
                 job_seconds: float) -> dict:
    """Submit ``jobs`` probes and watch them finish on the event feed.

    Each of ``watchers`` threads observes a disjoint slice of the jobs
    and must see every job in its slice reach a terminal state; the
    report carries the request tallies and how many terminal
    transitions were missed.
    """
    submitter = ServiceClient(url)
    receipts = submitter.submit_many([
        {"kind": "probe",
         "payload": {"behavior": "sleep", "seconds": job_seconds,
                     "tag": f"watch-{i}"}}
        for i in range(jobs)
    ])
    ids = [r.new[0] for r in receipts]
    slices = [ids[i::watchers] for i in range(watchers)]
    clients = [_CountingClient(url, retry_429=0) for _ in range(watchers)]
    missed = [0] * watchers
    t0 = time.monotonic()

    def observe(i: int) -> None:
        client, mine = clients[i], slices[i]
        try:
            seen = {v.job_id for v in client.watch(
                job_ids=mine, timeout=300.0) if v.terminal}
            missed[i] = len(set(mine) - seen)
        except Exception:  # noqa: BLE001 -- a missed job IS the metric
            missed[i] = len(mine)

    threads = [threading.Thread(target=observe, args=(i,), daemon=True)
               for i in range(watchers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600.0)
    seconds = time.monotonic() - t0
    totals = {"status": 0, "events": 0, "other": 0}
    for client in clients:
        for key, n in client.counts.items():
            totals[key] += n
    return {
        "jobs": jobs,
        "watchers": watchers,
        "seconds": round(seconds, 3),
        "status_requests": totals["status"],
        "events_requests": totals["events"],
        "other_requests": totals["other"],
        "missed_terminal": sum(missed),
    }


def _committed_poll_baseline(jobs: int, watchers: int) -> dict:
    """The last committed polling drain of this shape.

    The clients' poll-with-backoff wait loop was retired once every
    server spoke ``/v1/events``; what it cost is on record in the
    trajectory, and each new entry carries the record forward.
    """
    for entry in reversed(json.loads(TRAJECTORY.read_text())):
        poll = entry.get("scenarios", {}).get("watch", {}).get("poll")
        if poll and (poll["jobs"], poll["watchers"]) == (jobs, watchers):
            return poll
    raise RuntimeError(
        f"no committed polling baseline for {jobs} jobs x {watchers}"
        f" watchers in {TRAJECTORY.name}"
    )


def run_watch_scenario(workdir, *, jobs: int = 200, watchers: int = 50,
                       job_seconds: float = 0.05,
                       shards: int = 1) -> dict:
    """Watch-vs-poll: a watched drain against the committed poll tally.

    The claim under test: 50 clients watching a 200-job drain issue at
    least 10x fewer status-class HTTP requests than the same clients
    polling did, while missing zero terminal transitions.
    """
    poll = _committed_poll_baseline(jobs, watchers)
    proc, url = _start_serve(workdir, shards=shards, workers=4)
    try:
        watch = _watch_drain(url, jobs=jobs, watchers=watchers,
                             job_seconds=job_seconds)
    finally:
        _stop(proc)
    ratio = poll["status_requests"] / max(1, watch["status_requests"])
    return {
        "shards": shards,
        "poll": poll,
        "watch": watch,
        "status_request_ratio": round(ratio, 1),
    }


def run_all(tmp_root, duration: float = 6.0) -> dict:
    """The full scenario set; ``tmp_root`` holds the scratch workdirs."""
    tmp_root = pathlib.Path(tmp_root)
    scenarios = {
        "1shard": run_scenario(tmp_root / "s1", shards=1,
                               duration=duration, seed=1),
        "3shard": run_scenario(tmp_root / "s3", shards=3,
                               duration=duration, seed=3),
        # Submit-only flood into a low watermark: measure the refusal
        # path itself.  Workers keep draining, so admitted jobs clear.
        "admission": run_scenario(
            tmp_root / "adm", shards=1, duration=duration,
            mix={"submit": 1}, max_queue_depth=200, seed=5),
        # The events tentpole's claim: watching a drain costs an order
        # of magnitude fewer status requests than polling it, and no
        # terminal transition goes unobserved.
        "watch": run_watch_scenario(tmp_root / "watch"),
    }
    return {
        "t": time.time(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "duration_s": duration,
        "python": sys.version.split()[0],
        "scenarios": scenarios,
    }


def append_trajectory(entry: dict, path: pathlib.Path = TRAJECTORY) -> list:
    """Append one benchmark entry to the committed trajectory file."""
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
        if not isinstance(history, list):
            history = []
    history.append(entry)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return history


def check_entry(entry: dict) -> None:
    """The shape claims every trajectory entry must satisfy."""
    for name in ("1shard", "3shard"):
        rep = entry["scenarios"][name]
        assert rep["submitted_jobs"] > 0, f"{name}: nothing submitted"
        assert rep["submits_per_s"] >= SUBMITS_PER_S_FLOOR, \
            f"{name}: {rep['submits_per_s']} submits/s below the" \
            f" {SUBMITS_PER_S_FLOOR} floor"
        assert bad_5xx(rep) == 0, \
            f"{name}: non-503 5xx under load: {rep['status_codes']}"
        assert rep["drain"]["initial_depth"] >= 0
        for op in ("submit", "status"):
            stats = rep["ops"].get(op)
            assert stats and stats["p99_ms"] > 0.0, f"{name}: no {op} data"
    adm = entry["scenarios"]["admission"]
    assert bad_5xx(adm) == 0, \
        f"admission: non-503 5xx: {adm['status_codes']}"
    assert adm["status_codes"].get("429", 0) > 0, \
        "admission: the watermark never rejected anything -- storm too" \
        f" weak or gate broken: {adm['status_codes']}"
    # The backlog behind the watermark fully drained.
    assert adm["drain"]["seconds"] >= 0.0
    wat = entry["scenarios"]["watch"]
    assert wat["watch"]["missed_terminal"] == 0, \
        f"watch: missed terminal transitions: {wat['watch']}"
    assert wat["poll"]["missed_terminal"] == 0, \
        f"watch: poll baseline lost jobs: {wat['poll']}"
    assert wat["status_request_ratio"] >= 10.0, \
        f"watch: only {wat['status_request_ratio']}x fewer status" \
        f" requests than polling (need >= 10x)"


def test_service_throughput_trajectory(tmp_path):
    """Short storms over 1/3 shards + the watermark; append trajectory."""
    entry = run_all(tmp_path, duration=float(
        os.environ.get("BENCH_LOAD_DURATION", "6.0")))
    check_entry(entry)
    append_trajectory(entry)
    write_artifact("service_throughput.json",
                   json.dumps(entry, indent=1, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="service-throughput load benchmark")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="storm length per scenario (seconds)")
    parser.add_argument("--workdir", default=None,
                        help="scratch root (default: a temp dir)")
    parser.add_argument("--no-append", action="store_true",
                        help="print the entry without touching the"
                             " trajectory file")
    args = parser.parse_args()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = args.workdir or tmp
        entry = run_all(root, duration=args.duration)
    check_entry(entry)
    if not args.no_append:
        append_trajectory(entry)
        write_artifact("service_throughput.json",
                       json.dumps(entry, indent=1, sort_keys=True))
    for name, rep in entry["scenarios"].items():
        if "status_request_ratio" in rep:
            print(f"{name:>10}: {rep['status_request_ratio']}x fewer"
                  f" status requests watching vs polling"
                  f" ({rep['poll']['status_requests']} ->"
                  f" {rep['watch']['status_requests']},"
                  f" {rep['watch']['missed_terminal']} missed)")
            continue
        print(f"{name:>10}: {rep['submits_per_s']:>8.1f} submits/s,"
              f" submit p99 {rep['ops'].get('submit', {}).get('p99_ms', 0)}"
              f" ms, drain {rep['drain']['drain_per_s']}/s,"
              f" codes {rep['status_codes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
