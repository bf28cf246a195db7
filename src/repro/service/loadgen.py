"""Sustained-load generation against a live coordinator (stdlib only).

The service tier claims it can absorb "heavy traffic"; this module is
how the claim gets measured instead of asserted, in the spirit of the
source paper's method -- find the ceiling, then move it -- and of
Balsam's ``tests/benchmark`` locust harness.  A storm is:

* **N worker processes** (real processes, so the generator itself never
  serializes behind one GIL while the threaded server fans out), each
  running
* **C asyncio coroutines** over keep-alive HTTP/1.1 connections
  (:class:`MiniClient` -- the server always frames responses with
  ``Content-Length``, which is what makes a ~100-line client correct),
  each drawing
* operations from a weighted **mix** of submit / batch-submit / status /
  result / cancel until the deadline.

Every operation records its latency and status code; the merged
:func:`run_storm` report carries per-endpoint p50/p95/p99, a status-code
histogram (429s are the admission control *working*, 5xx other than 503
``store_unavailable`` are bugs), aggregate submits/s, and the error
samples needed to debug a failure.  :func:`measure_drain` then times the
queue going to zero, and :func:`rss_bytes` reads the coordinator's
resident set from ``/proc`` so a leak under load is a number, not a
vibe.  ``benchmarks/bench_service_load.py`` drives all of this and
appends to the ``BENCH_service_throughput.json`` trajectory.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import time
import urllib.parse

#: The operation names a mix may weight.
OPERATIONS = ("submit", "batch", "status", "result", "cancel", "watch")

#: Default operation mix: submit-heavy, like a sweep-driven workload.
#: ``watch`` (one resumable ``GET /v1/events`` long-poll per draw,
#: cursor carried between draws) is off by default -- scenarios opt in.
DEFAULT_MIX = {"submit": 6, "batch": 1, "status": 2, "result": 2,
               "cancel": 1}

#: Long-poll hold per ``watch`` draw; short so a watch-heavy mix still
#: ticks through enough operations to measure within a storm.
WATCH_POLL_S = 1.0

#: Jobs per batch-submit operation.
DEFAULT_BATCH_SIZE = 25

_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an unsorted sample list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def rss_bytes(pid: int) -> int | None:
    """The process's resident set size from ``/proc`` (None off-Linux)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


class MiniClient:
    """A minimal asyncio HTTP/1.1 keep-alive client for one server.

    Correct *for this server* rather than in general: ``repro serve``
    always sends ``Content-Length`` (JSON and octet-stream paths alike),
    never chunked transfer encoding, so framing is trivial.  One
    instance owns one connection; a coroutine uses its own instance.
    Broken connections reconnect transparently on the next request.
    """

    def __init__(self, url: str) -> None:
        parsed = urllib.parse.urlsplit(
            url if "://" in url else f"http://{url}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
        self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict]:
        """One round-trip; returns ``(status, parsed-JSON body)``.

        Retries exactly once on a dead keep-alive connection (the
        server may have closed it between requests); any other
        transport error propagates as :class:`ConnectionError`.
        """
        payload = (json.dumps(body).encode() if body is not None else b"")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode("ascii")
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                self._writer.write(head + payload)
                await self._writer.drain()
                return await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise ConnectionError(
                        f"{method} {path}: connection failed twice"
                    ) from None

    async def _read_response(self) -> tuple[int, dict]:
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(None, 2)
        status = int(parts[1])
        length = 0
        close = False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.lower() == "close":
                close = True
        raw = await self._reader.readexactly(length) if length else b"{}"
        if close:
            await self.close()
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = {}
        return status, parsed if isinstance(parsed, dict) else {}


def _merge_op(stats: dict, op: str, status: int, elapsed_ms: float) -> None:
    entry = stats.setdefault(op, {"latencies": [], "codes": {}})
    entry["latencies"].append(elapsed_ms)
    key = str(status)
    entry["codes"][key] = entry["codes"].get(key, 0) + 1


async def _one_worker(url: str, worker_id: str, deadline: float,
                      mix: dict[str, float], batch_size: int,
                      rng: random.Random, stats: dict,
                      submitted_ids: list[str],
                      errors: list[str]) -> None:
    """One coroutine's request loop until the deadline."""
    client = MiniClient(url)
    ops = [op for op in OPERATIONS if mix.get(op, 0) > 0]
    weights = [mix[op] for op in ops]
    seq = 0
    # Each coroutine is one subscriber: its event cursor persists
    # across ``watch`` draws, so the feed is consumed incrementally
    # the way a real watching client would.
    cursor = "now"
    try:
        while time.monotonic() < deadline:
            op = rng.choices(ops, weights)[0]
            seq += 1
            tag = f"{worker_id}-{seq}"
            try:
                t0 = time.monotonic()
                if op == "submit":
                    status, body = await client.request(
                        "POST", "/v1/jobs",
                        {"kind": "probe",
                         "payload": {"behavior": "ok", "tag": tag}})
                elif op == "batch":
                    jobs = [{"kind": "probe",
                             "payload": {"behavior": "ok",
                                         "tag": f"{tag}.{i}"}}
                            for i in range(batch_size)]
                    status, body = await client.request(
                        "POST", "/v1/jobs/batch", {"jobs": jobs})
                elif op == "status":
                    status, body = await client.request(
                        "GET", "/v1/queue?limit=20")
                elif op == "result" and submitted_ids:
                    jid = rng.choice(submitted_ids)
                    status, body = await client.request(
                        "GET", f"/v1/jobs/{jid}/result")
                elif op == "cancel" and submitted_ids:
                    jid = rng.choice(submitted_ids)
                    status, body = await client.request(
                        "POST", f"/v1/jobs/{jid}/cancel")
                elif op == "watch":
                    status, body = await client.request(
                        "GET", "/v1/events?cursor="
                        + urllib.parse.quote(cursor)
                        + f"&timeout={WATCH_POLL_S}&limit=100")
                    if status == 200 and body.get("cursor"):
                        cursor = body["cursor"]
                    elif status in (410, 422):
                        cursor = "now"  # resync a stale/foreign cursor
                else:
                    # No ids yet to read or cancel: probe liveness so
                    # the tick still measures something.
                    op = "status"
                    status, body = await client.request(
                        "GET", "/v1/healthz")
                elapsed_ms = (time.monotonic() - t0) * 1000.0
            except ConnectionError as exc:
                if len(errors) < 20:
                    errors.append(f"{op}: {exc}")
                continue
            _merge_op(stats, op, status, elapsed_ms)
            if status == 200 and op in ("submit", "batch"):
                receipt = body.get("receipt", {})
                ids = receipt.get("job_ids", [])
                # A bounded reservoir of ids to read back / cancel.
                for jid in ids[:5]:
                    if len(submitted_ids) < 500:
                        submitted_ids.append(jid)
                stats.setdefault("_submitted", [0])[0] += len(ids)
            elif status >= 500 and len(errors) < 20:
                errors.append(
                    f"{op}: HTTP {status}"
                    f" {body.get('error', {}).get('code', '?')}")
    finally:
        await client.close()


async def _process_storm(url: str, prefix: str, duration: float,
                         concurrency: int, mix: dict[str, float],
                         batch_size: int, seed: int) -> dict:
    deadline = time.monotonic() + duration
    stats: dict = {}
    submitted_ids: list[str] = []
    errors: list[str] = []
    await asyncio.gather(*(
        _one_worker(url, f"{prefix}-c{i}", deadline, mix, batch_size,
                    random.Random(seed * 1000 + i), stats, submitted_ids,
                    errors)
        for i in range(concurrency)
    ))
    return {"stats": stats, "errors": errors}


def _storm_entry(url: str, prefix: str, duration: float, concurrency: int,
                 mix: dict[str, float], batch_size: int, seed: int,
                 out: "multiprocessing.Queue") -> None:
    """Child-process entry point: run one process's share of the storm."""
    try:
        result = asyncio.run(_process_storm(
            url, prefix, duration, concurrency, mix, batch_size, seed))
    except Exception as exc:  # noqa: BLE001 -- report, don't hang join()
        result = {"stats": {}, "errors": [f"process {prefix}:"
                                          f" {type(exc).__name__}: {exc}"]}
    out.put(result)


def run_storm(url: str, duration: float = 10.0, processes: int = 2,
              concurrency: int = 8, mix: dict[str, float] | None = None,
              batch_size: int = DEFAULT_BATCH_SIZE, seed: int = 0,
              server_pid: int | None = None) -> dict:
    """Hammer ``url`` and return the merged measurement report.

    ``processes`` worker processes x ``concurrency`` coroutines each,
    drawing from ``mix`` (see :data:`DEFAULT_MIX`) for ``duration``
    seconds.  With ``server_pid`` the coordinator's RSS is sampled
    before and after, so memory growth under load lands in the report.
    The report is JSON-ready: per-endpoint latency percentiles and
    status-code histograms, aggregate ``submits_per_s`` (jobs enqueued,
    counting every batch point), and up to 20 error samples.
    """
    mix = dict(DEFAULT_MIX if mix is None else mix)
    unknown = set(mix) - set(OPERATIONS)
    if unknown:
        raise ValueError(f"unknown operations in mix: {sorted(unknown)}")
    rss_before = rss_bytes(server_pid) if server_pid else None
    ctx = multiprocessing.get_context()
    out: multiprocessing.Queue = ctx.Queue()
    procs = [
        ctx.Process(target=_storm_entry,
                    args=(url, f"lg{seed}-p{i}", duration, concurrency,
                          mix, batch_size, seed + i, out),
                    daemon=True)
        for i in range(processes)
    ]
    t0 = time.monotonic()
    for p in procs:
        p.start()
    merged: dict = {}
    errors: list[str] = []
    submitted = 0
    for _ in procs:
        # Generous grace on top of the storm itself; a wedged child
        # must not hang the harness forever.
        result = out.get(timeout=duration + 120.0)
        for op, entry in result["stats"].items():
            if op == "_submitted":
                submitted += entry[0]
                continue
            target = merged.setdefault(op, {"latencies": [], "codes": {}})
            target["latencies"].extend(entry["latencies"])
            for code, n in entry["codes"].items():
                target["codes"][code] = target["codes"].get(code, 0) + n
        errors.extend(result["errors"])
    for p in procs:
        p.join(timeout=30.0)
    wall = time.monotonic() - t0
    rss_after = rss_bytes(server_pid) if server_pid else None
    report: dict = {
        "duration_s": round(wall, 3),
        "processes": processes,
        "concurrency": concurrency,
        "mix": mix,
        "batch_size": batch_size,
        "submitted_jobs": submitted,
        "submits_per_s": round(submitted / wall, 2) if wall > 0 else 0.0,
        "ops": {},
        "status_codes": {},
        "errors": errors[:20],
        "rss_before_bytes": rss_before,
        "rss_after_bytes": rss_after,
    }
    for op, entry in sorted(merged.items()):
        lat = entry["latencies"]
        report["ops"][op] = {
            "count": len(lat),
            "mean_ms": round(sum(lat) / len(lat), 3) if lat else 0.0,
            **{f"p{int(p) if p == int(p) else p}_ms":
               round(percentile(lat, p), 3) for p in _PERCENTILES},
            "codes": dict(sorted(entry["codes"].items())),
        }
        for code, n in entry["codes"].items():
            report["status_codes"][code] = \
                report["status_codes"].get(code, 0) + n
    report["status_codes"] = dict(sorted(report["status_codes"].items()))
    return report


def bad_5xx(report: dict) -> int:
    """Server errors that are bugs: 5xx minus 503 graceful degradation."""
    return sum(n for code, n in report.get("status_codes", {}).items()
               if code.startswith("5") and code != "503")


def measure_drain(url: str, timeout: float = 120.0,
                  poll: float = 0.25) -> dict:
    """Time the queue draining to zero outstanding jobs via healthz.

    Returns ``{"initial_depth", "drained", "seconds", "drain_per_s"}``;
    raises :class:`TimeoutError` if jobs are still outstanding after
    ``timeout`` seconds (the acceptance criterion is that a storm's
    backlog fully drains).
    """
    import urllib.request

    def depth() -> int:
        with urllib.request.urlopen(f"{url}/v1/healthz",
                                    timeout=10.0) as resp:
            queue = json.load(resp).get("queue", {})
        return sum(queue.get(s, 0)
                   for s in ("BLOCKED", "PENDING", "RUNNING"))

    initial = depth()
    t0 = time.monotonic()
    deadline = t0 + timeout
    current = initial
    while current > 0:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"queue still holds {current} outstanding job(s)"
                f" after {timeout:.0f}s"
            )
        time.sleep(poll)
        current = depth()
    seconds = time.monotonic() - t0
    return {
        "initial_depth": initial,
        "drained": initial,
        "seconds": round(seconds, 3),
        "drain_per_s": round(initial / seconds, 2) if seconds > 0 else 0.0,
    }
