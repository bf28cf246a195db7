"""Event-feed chaos: SIGKILL the coordinator mid long-poll, resume, lose
nothing.

The resumability claim under real process death: a client following
``GET /v1/events`` with ``watch()`` holds only the cursor of the last
view it received; the coordinator is SIGKILLed mid-feed (mid-drain,
possibly mid-response and mid-append), a new coordinator starts over
the same workdir and port, and a ``watch()`` restarted from that
cursor must deliver **every durably-logged event exactly once** -- the
feed the client saw, concatenated across the kill, equals a post-hoc
replay of the full log, cursor for cursor.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.http import ServiceClient

from .conftest import start_serve, stop

pytestmark = pytest.mark.dedicated

TERMINAL = ("DONE", "FAILED", "CANCELLED")


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


def test_sigkill_mid_long_poll_resumes_exactly_once(tmp_path):
    """Kill the coordinator under a live ``watch()`` consumer; nothing is
    lost or repeated when it restarts ``watch`` from its last cursor.
    """
    workdir = tmp_path / "svc"
    proc, url = start_serve(workdir, workers=2)
    restarted = None
    streamed: list = []
    finished = threading.Event()

    def consume() -> None:
        # The contract under test: while the coordinator is unreachable
        # ``watch`` raises, and restarting it from the cursor of the
        # last view actually received misses and repeats nothing.
        client = ServiceClient(url, timeout=5.0)
        last = "begin"
        while not finished.is_set():
            try:
                for view in client.watch(cursor=last, poll=0.3):
                    streamed.append(view)
                    last = view.cursor
                    if finished.is_set():
                        return
            except ServiceError as exc:
                if type(exc) is not ServiceError:
                    raise  # a typed answer from a live server
                time.sleep(0.1)  # unreachable: resume from ``last``

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
        restarted, _ = start_serve(workdir, workers=2, port=port)
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

        # Ground truth: one replay of the full log.
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
        finished.set()

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
        finished.set()
        stop(proc)
        stop(restarted)
