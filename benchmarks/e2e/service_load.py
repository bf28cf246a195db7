"""The two service workloads, driven through a real ``repro serve``.

The server under test is exactly what the README tells a user to run
(``python -m repro serve --workdir <tmp> --port 0``: 1 shard, 2 worker
slots, backoff 0.5) and the load is closed loop over the public
:class:`~repro.service.http.ServiceClient`.  Per-job stage times come
from client timers plus the timestamps on the public ``/v1/events``
feed; nothing inside the server is instrumented.
"""

from __future__ import annotations

import itertools
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError
from repro.service.http.client import ServiceClient

from . import gen, stats, verify
from .harness import Op, Workload, read_peak_rss_mb
from .spans import Recorder

#: No more generator threads / connections than the sandbox has cores.
CLIENT_THREADS = 2
#: Public per-job timeout: a wedged fork (see README, Known findings)
#: costs one bounded outlier instead of a worker slot for the whole run.
JOB_TIMEOUT_S = 2.0
#: Client-side deadline for one op; beyond it the op counts as failed.
OP_DEADLINE_S = 15.0
#: A burst of BURST points queues behind 2 slots, so it gets this long.
BURST_DEADLINE_S = 30.0
#: Deep enough that the slots, not round-trips, bound a round (6 jobs
#: per slot), short enough that a 15 s window holds 4-5 rounds and the
#: median round is a median of more than three.
BURST = 12
WORKER_SLOTS = 2

#: Wall-clock (event timestamps) minus perf_counter (client spans).
_EPOCH = time.time() - time.perf_counter()


class Server:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        self._log = open(os.path.join(workdir, "serve.stderr"), "w")
        # Its own session: forked job children share the process group,
        # so stop() can reap a wedged one the server left behind.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workdir", os.path.join(workdir, "svc"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            start_new_session=True,
        )
        try:
            banner = self.proc.stdout.readline()
            found = re.search(r"on (http://\S+)", banner)
            if not found:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.url = found.group(1)
            ServiceClient(self.url).healthz()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGINT (the pool reaps its children), then the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


#: Public client calls that are one HTTP request each, and their spans.
_TRACED_CALLS = {
    "submit": "service.http.submit",
    "submit_many": "service.http.submit_many",
    "result": "service.http.result_fetch",
    "events": "service.http.events_poll",
    "job": "service.http.job",
}


class TracedClient(ServiceClient):
    """A :class:`ServiceClient` whose public round-trips record spans.

    ``wait()`` is built from ``events()``/``result()``/``job()`` calls on
    ``self``, so wrapping the public methods also sees the requests it
    makes.  With a disabled recorder this *is* a ``ServiceClient``.
    """

    def __init__(self, url: str, rec: Recorder) -> None:
        super().__init__(url)
        self.rec = rec


def _traced(method_name: str, span_name: str):
    inner = getattr(ServiceClient, method_name)

    def call(self, *args, **kwargs):
        # result(job_id) / job(job_id): remember which job it was about.
        ref = args[0] if args and isinstance(args[0], str) else ""
        with self.rec.span(span_name, ref=ref):
            return inner(self, *args, **kwargs)

    call.__name__ = method_name
    return call


for _method, _span in _TRACED_CALLS.items():
    setattr(TracedClient, _method, _traced(_method, _span))


def _job_op(cls: str, start: float, end: float, payload: dict,
            job_id: str, view, span_id: int | None) -> Op:
    """The :class:`Op` for one job whose :class:`ResultView` is in hand."""
    ok = view is not None and view.state == "DONE" \
        and view.result is not None
    note = "" if ok else f"job ended {getattr(view, 'state', 'unseen')}"
    return Op(cls, start, end, ok, payload,
              {"job_id": job_id, "view": view, "span": span_id}, note)


#: What can go wrong with one op without it being a benchmark bug.
_OP_ERRORS = (ReproError, OSError, ValueError)


class ServiceWorkload(Workload):
    """Shared set-up/tear-down and event-derived metrics."""

    def __init__(self, seed: int, rec: Recorder, scratch: str) -> None:
        super().__init__(seed, rec, scratch)
        self.server: Server | None = None
        self.clients: list[TracedClient] = []
        self._payloads = gen.sim_payloads(seed)
        self._lock = threading.Lock()
        self._op_ids = itertools.count()

    def next_payloads(self, count: int) -> list[dict]:
        with self._lock:
            return list(itertools.islice(self._payloads, count))

    def setup(self) -> None:
        self.server = Server(self.scratch)
        self.clients = [TracedClient(self.server.url, self.rec)
                        for _ in range(CLIENT_THREADS)]
        # Warm-up: one job per client, together as in the windows (alone,
        # a job's run sits on a 0.2 s event-poll boundary and set-up time
        # flips between two values).
        with ThreadPoolExecutor(CLIENT_THREADS) as pool:
            for op in pool.map(self.one_job, range(CLIENT_THREADS)):
                if not op.ok:
                    raise RuntimeError(f"warm-up job failed: {op.note}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def one_job(self, tid: int) -> Op:
        """submit -> wait: one job with its result body in hand."""
        client = self.clients[tid]
        (payload,) = self.next_payloads(1)
        start = time.perf_counter()
        with self.rec.span("client.op", op=next(self._op_ids)) as span_id:
            try:
                receipt = client.submit("sim", payload,
                                        timeout=JOB_TIMEOUT_S)
                (job_id,) = receipt.job_ids
                with self.rec.span("client.wait"):
                    view = client.wait([job_id],
                                       timeout=OP_DEADLINE_S)[job_id]
            except _OP_ERRORS as exc:
                return Op("sim", start, time.perf_counter(), False, payload,
                          None, f"{type(exc).__name__}: {exc}")
        return _job_op("sim", start, time.perf_counter(), payload, job_id,
                       view, span_id)

    def check(self) -> None:
        """Each result equals an in-process run of its payload, bit for bit."""
        for op in self.ops:
            if op.ok and verify.service_result_wrong(
                    op.input, op.output["view"].result):
                op.ok, op.note = False, "result differs from in-process run"

    # -- per-layer: what a traced window observed ------------------------

    def job_events(self, job_ids: set[str]) -> dict[str, dict[str, float]]:
        """``{job: {event kind: timestamp}}`` from ``/v1/events``.

        The first ``submitted`` and the last of everything else: for a
        retried job the stages then describe the attempt that finished.
        """
        client = ServiceClient(self.server.url)
        by_job: dict[str, dict[str, float]] = {}
        cursor = "begin"
        page = 500
        while True:
            views, cursor, _ = client.events(cursor=cursor, limit=page)
            for view in views:
                if view.job_id in job_ids:
                    kinds = by_job.setdefault(view.job_id, {})
                    if view.kind != "submitted" or "submitted" not in kinds:
                        kinds[view.kind] = view.t
            if len(views) < page:
                return by_job

    def observed_metrics(self, index: int) -> dict:
        """Stage medians for the jobs of traced window ``index``.

        Server-side stages are rebuilt from event timestamps (wall clock,
        same host) and added to the trace as spans on their own lanes,
        children of the client span that caused them.
        """
        rec = self.rec
        window = self.windows[index]
        jobs = {op.output["job_id"]: op
                for op in self.window_ops(index) if op.ok}
        events = self.job_events(set(jobs))
        fetch_of = {}
        for span in rec.named("service.http.result_fetch"):
            fetch_of.setdefault(span.ref, span)  # wait()'s is the first
        stages: dict[str, list[float]] = {
            k: [] for k in ("queue_wait", "launch", "run", "delivery")}
        run_seconds = 0.0
        for job_id, op in jobs.items():
            ev = events.get(job_id, {})
            if not all(k in ev for k in
                       ("submitted", "claimed", "launched", "done")):
                continue
            parent = op.output["span"]
            op_id = rec.spans[parent].op
            for name, layer, lo, hi in (
                    ("queue_wait", "store", "submitted", "claimed"),
                    ("launch", "workers", "claimed", "launched"),
                    ("run", "workers", "launched", "done")):
                stages[name].append((ev[hi] - ev[lo]) * 1e3)
                rec.add(f"service.{layer}.{name}", ev[lo] - _EPOCH,
                        ev[hi] - _EPOCH, parent=parent, op=op_id,
                        lane=f"server:{layer}", ref=job_id)
            run_seconds += ev["done"] - ev["launched"]
            fetch = fetch_of.get(job_id)
            if fetch is not None:
                # done event -> the client has learned of it and asks for
                # the body; the fetch itself is result_fetch_ms.
                done = ev["done"] - _EPOCH
                stages["delivery"].append((fetch.start - done) * 1e3)
                rec.add("service.events.delivery", done, fetch.start,
                        parent=parent, op=op_id, lane="server:events",
                        ref=job_id)
        in_window = [s for s in rec.spans
                     if window.start <= s.start
                     <= window.start + window.elapsed]
        latencies = [op.latency_ms for op in jobs.values()]

        def p50(values) -> float:
            values = list(values)
            if not values:
                raise RuntimeError(f"{self.name}: stage never observed")
            return stats.median(values)

        def http_ms(name: str):
            return (s.duration * 1e3 for s in in_window if s.name == name)

        return {
            "service.http.submit_ms": p50(http_ms("service.http.submit")),
            "service.http.result_fetch_ms":
                p50(http_ms("service.http.result_fetch")),
            "service.http.requests_per_job":
                sum(s.name.startswith("service.http.") for s in in_window)
                / len(jobs),
            "service.store.queue_wait_ms": p50(stages["queue_wait"]),
            "service.workers.launch_ms": p50(stages["launch"]),
            "service.workers.run_ms": p50(stages["run"]),
            "service.events.delivery_ms": p50(stages["delivery"]),
            "service.workers.retried_jobs": sum(
                op.output["view"].job.attempts > 1 for op in jobs.values()),
            "service.workers.slot_utilization":
                run_seconds / (WORKER_SLOTS * window.elapsed),
            "client.latency_p90_ms": stats.percentile(latencies, 90.0),
            "client.latency_max_ms": max(latencies),
        }

    def http_floor_ms(self, repeats: int = 50) -> float:
        """``GET /v1`` on an idle server: the HTTP stack, no store work."""
        samples = []
        for _ in range(repeats):
            client = ServiceClient(self.server.url)  # the probe is cached
            start = time.perf_counter()
            client.capabilities()
            samples.append((time.perf_counter() - start) * 1e3)
        return stats.median(samples)


class SimClosed(ServiceWorkload):
    """2 callers each loop submit -> wait on an idle queue."""

    name = "sim_closed"
    callers = CLIENT_THREADS

    def one_cycle(self, caller: int) -> list[Op]:
        return [self.one_job(caller)]


class SweepBurst(ServiceWorkload):
    """Rounds of a 12-point batch, then the same points as cache hits."""

    name = "sweep_burst"

    def one_cycle(self, caller: int) -> list[Op]:
        client = self.clients[caller]
        payloads = self.next_payloads(BURST)
        start = time.perf_counter()
        with self.rec.span("client.burst", op=next(self._op_ids)) as span_id:
            try:
                receipts = client.submit_many(
                    [{"kind": "sim", "payload": p} for p in payloads],
                    timeout=JOB_TIMEOUT_S)
                job_ids = [r.job_ids[0] for r in receipts]
                with self.rec.span("client.wait"):
                    views = client.wait(job_ids, timeout=BURST_DEADLINE_S)
            except _OP_ERRORS + (IndexError,) as exc:
                end = time.perf_counter()
                return [Op("burst", start, end, False, p, None,
                           f"{type(exc).__name__}: {exc}") for p in payloads]
        end = time.perf_counter()
        ops = [_job_op("burst", start, end, payload, job_id,
                       views.get(job_id), span_id)
               for payload, job_id in zip(payloads, job_ids)]
        # The same points again, one at a time: every one a cache hit.
        for op in ops:
            if op.ok:
                self.resubmit(client, op)
        return ops

    def resubmit(self, client: TracedClient, op: Op) -> None:
        start = time.perf_counter()
        with self.rec.span("client.cache_hit", op=next(self._op_ids)):
            try:
                receipt = client.submit("sim", op.input,
                                        timeout=JOB_TIMEOUT_S)
                if not receipt.cached:
                    raise ValueError("resubmission was not a cache hit")
                again = client.result(receipt.cached[0])
                if again.result != op.output["view"].result:
                    raise ValueError("cached result differs")
            except _OP_ERRORS as exc:
                op.ok, op.note = False, f"{type(exc).__name__}: {exc}"
                return
        op.output["hit_ms"] = (time.perf_counter() - start) * 1e3

    def latency_samples(self, ops: list[Op]) -> list[tuple[str, float]]:
        """Resubmit -> result in hand for an already computed point.

        A burst point's own latency is its place in the queue, which the
        throughput already states; the caller-visible per-op latency of
        this workload is the cache read path.
        """
        return [("hit", op.output["hit_ms"]) for op in ops if op.ok]
