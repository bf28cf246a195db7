"""Event-feed chaos: SIGKILL the coordinator mid-SSE, resume, lose nothing.

The resumability claim under real process death: a client streaming
``GET /v1/events`` over SSE holds only its last delivered cursor; the
coordinator is SIGKILLed mid-stream (mid-drain, possibly mid-frame and
mid-append), a new coordinator starts over the same workdirs and port,
and the client's automatic ``Last-Event-ID`` reconnect must deliver
**every durably-logged event exactly once** -- the stream the client
saw, concatenated across the kill, equals a post-hoc replay of the full
log, cursor for cursor.  Run over both a single-workdir coordinator and
``--shards 3`` (per-shard offsets must all survive the restart).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service.http import ServiceClient

pytestmark = pytest.mark.dedicated

TERMINAL = ("DONE", "FAILED", "CANCELLED")


def _start_serve(workdir, shards: int, port: int = 0,
                 workers: int = 2) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir",
         str(workdir), "--shards", str(shards), "--port", str(port),
         "--workers", str(workers), "--backoff", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def _stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


def _wait_healthy(url: str, timeout: float = 30.0) -> None:
    client = ServiceClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return
        except Exception:  # noqa: BLE001 -- still booting
            time.sleep(0.1)
    raise AssertionError(f"no healthy server at {url}")


@pytest.mark.parametrize("shards", [1, 3])
def test_sigkill_mid_sse_resumes_exactly_once(tmp_path, shards):
    """Kill the coordinator under a live SSE consumer; nothing is lost
    or repeated across the ``Last-Event-ID`` reconnect.
    """
    workdir = tmp_path / "svc"
    proc, url = _start_serve(workdir, shards)
    restarted = None
    streamed: list = []
    stop = threading.Event()

    def consume() -> None:
        # reconnect=True is the contract under test: on a dead socket
        # the client reconnects with Last-Event-ID = the cursor of the
        # last event it actually received.
        client = ServiceClient(url, timeout=5.0)
        for view in client.events_stream(cursor="begin", heartbeat=0.3,
                                         reconnect=True,
                                         reconnect_delay=0.1):
            streamed.append(view)
            if stop.is_set():
                return

    consumer = threading.Thread(target=consume, daemon=True)
    try:
        client = ServiceClient(url, timeout=10.0)
        ids = [r.new[0] for r in client.submit_many([
            {"kind": "probe",
             "payload": {"behavior": "sleep", "seconds": 0.25,
                         "tag": i}}
            for i in range(10)
        ])]
        consumer.start()
        # Let part of the drain stream out, then kill without warning.
        time.sleep(1.0)
        assert streamed, "no events streamed before the kill"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        port = int(url.rsplit(":", 1)[1])
        restarted, _ = _start_serve(workdir, shards, port=port)
        _wait_healthy(url)

        # The restarted coordinator finishes the drain (stale RUNNING
        # claims are recovered); wait for every job to go terminal.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            states = {jid: client.job(jid).state for jid in ids}
            if all(s in TERMINAL for s in states.values()):
                break
            time.sleep(0.2)
        else:
            raise AssertionError(f"drain incomplete: {states}")

        # Ground truth: one replay of the full merged log.
        truth, cursor = [], "begin"
        while True:
            batch, cursor, timed_out = client.events(cursor=cursor)
            truth.extend(batch)
            if timed_out or not batch:
                break
        # Let the consumer catch up to the end of the log, then stop.
        want = [v.cursor for v in truth]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and \
                [v.cursor for v in streamed] != want:
            time.sleep(0.1)
        stop.set()

        got = [v.cursor for v in streamed]
        assert len(got) == len(set(got)), "duplicate events delivered"
        assert got == want, (
            f"stream diverged from the log across the kill:"
            f" {len(got)} streamed vs {len(want)} logged"
        )
        # And the drain itself lost nothing: one terminal transition
        # per job was observed through the stream.
        terminal_jobs = [v.job_id for v in streamed
                         if v.terminal and v.job_id in set(ids)]
        assert sorted(set(terminal_jobs)) == sorted(ids)
        assert len(terminal_jobs) == len(ids), \
            "a job reached a terminal state more than once"
    finally:
        stop.set()
        _stop(proc)
        _stop(restarted)
