"""Streaming chaos: kill an uploader mid-stream, bound coordinator RSS.

The chunked result path's crash-safety and memory claims, exercised
with real processes and real SIGKILL:

* **SIGKILLed worker mid-upload** -- a worker dies partway through
  chunk-uploading a large result.  The lease-expiry sweep garbage
  collects the orphaned spool file (no ``.part`` survives under
  ``staging/``), requeues the job exactly once, and a second worker
  re-uploads the identical result, which then round-trips to a client
  byte-for-byte.
* **Bounded coordinator memory** -- a >= 64 MB result streams
  worker -> coordinator -> client while the coordinator's peak RSS
  (``VmHWM``) grows far less than the result size: the spool-to-disk
  design means it holds at most one chunk in memory.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.service import Service
from repro.service.http import ServiceClient
from repro.service.streams import encode_result

pytestmark = pytest.mark.dedicated

#: The deterministic large result both workers "compute" for the chaos
#: job: ~200 KB encoded, well past the server's tiny --inline-max below.
CHAOS_RESULT = {"tag": "stream-chaos", "blob": "v" * 200_000}


def _start_serve(workdir, shards: int = 1,
                 inline_max: int | None = None) -> tuple[subprocess.Popen,
                                                         str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
           "--shards", str(shards), "--port", "0", "--workers", "0",
           "--backoff", "0.01"]
    if inline_max is not None:
        cmd += ["--inline-max", str(inline_max)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


#: Claims the one pending job and uploads CHAOS_RESULT in small chunks
#: with a pause after each, leaving a wide window to be SIGKILLed
#: mid-stream.  Holds a long lease on purpose: only the *expiry* of the
#: abandoned lease may clean up after the kill.
_VICTIM_SCRIPT = textwrap.dedent("""\
    import sys, time
    from repro.service.http.client import ServiceClient, _query
    from repro.service.streams import encode_result, iter_chunks

    url = sys.argv[1]
    client = ServiceClient(url)
    lease, jobs = client.claim_jobs(worker="victim", n=1, ttl=2.0)
    encoded = encode_result(
        {"tag": "stream-chaos", "blob": "v" * 200_000})
    for chunk in iter_chunks(encoded, 4096):
        client._request_raw(
            "POST",
            f"/v1/jobs/{jobs[0].id}/result/chunks"
            + _query(lease=lease.id, offset=chunk.offset,
                     sha256=chunk.sha256),
            chunk.data,
        )
        time.sleep(0.15)
    time.sleep(120)  # never reached: SIGKILL lands mid-loop
""")


def _staged_parts(workdir) -> list[pathlib.Path]:
    return sorted(pathlib.Path(workdir).rglob("staging/*.part"))


def _stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


class TestSigkilledUploader:
    def test_spool_gcd_requeued_once_and_rerun_identically(self, tmp_path):
        svc_dir = tmp_path / "svc"
        proc, url = _start_serve(svc_dir, inline_max=1024)
        victim = None
        try:
            client = ServiceClient(url, inline_max=1024, chunk_size=8192)
            jid = client.submit("probe", {"tag": "stream-chaos"}).new[0]

            env = dict(os.environ)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH",
                                                             "")
            victim = subprocess.Popen(
                [sys.executable, "-c", _VICTIM_SCRIPT, url],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(__file__)),
            )
            # Wait until chunks are verifiably hitting the spool, then
            # SIGKILL the uploader mid-stream.
            deadline = time.monotonic() + 60.0
            while not any(p.stat().st_size > 0 for p in
                          _staged_parts(svc_dir)):
                assert victim.poll() is None, victim.stdout.read()
                assert time.monotonic() < deadline, "upload never started"
                time.sleep(0.05)
            victim.kill()
            victim.wait(timeout=30)
            parts = _staged_parts(svc_dir)
            assert parts, "spool vanished before any sweep ran"
            assert parts[0].stat().st_size < len(encode_result(CHAOS_RESULT))

            # A second worker polls for the requeued job; its claim
            # drives the lease-expiry sweep that both requeues the job
            # and garbage-collects the orphaned spool.
            deadline = time.monotonic() + 60.0
            while True:
                lease, jobs = client.claim_jobs(worker="survivor", n=1, ttl=10.0)
                if jobs:
                    break
                assert time.monotonic() < deadline, "job never requeued"
                time.sleep(0.25)
            assert [j.id for j in jobs] == [jid]
            assert _staged_parts(svc_dir) == [], \
                "expiry sweep left the dead upload's spool behind"

            # The survivor re-uploads the identical (deterministic)
            # result -- transparently chunked by the tiny inline_max.
            view = client.complete_job(jid, lease.id, CHAOS_RESULT)
            assert view.state == "DONE"
            assert client.result(jid).result == CHAOS_RESULT
        finally:
            _stop(victim)
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

        # Audit: claimed twice, requeued by expiry exactly once, one
        # abandoned stream discarded, one finished, done exactly once.
        service = Service(svc_dir)
        kinds = [e["event"] for e in service.store.events()
                 if e.get("job") == jid]
        assert kinds.count("claimed") == 2
        assert kinds.count("lease_expired") == 1
        assert kinds.count("stream_started") == 2
        assert kinds.count("stream_discarded") == 1
        assert kinds.count("stream_finished") == 1
        assert kinds.count("done") == 1


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set size of ``pid`` in KiB, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")  # pragma: no cover


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux procfs for peak-RSS accounting")
class TestCoordinatorMemoryBound:
    def test_64mb_stream_never_materializes_on_the_coordinator(
            self, tmp_path):
        """Stream a >= 64 MB result worker -> coordinator -> client and
        prove the coordinator's peak RSS grew by far less than the
        result: it spools chunks to disk, holding at most one (4 MiB)
        chunk plus request overhead in memory.
        """
        proc, url = _start_serve(tmp_path / "svc")
        try:
            client = ServiceClient(url)
            jid = client.submit("probe", {"tag": "big-result"}).new[0]
            base_kib = _vm_hwm_kib(proc.pid)

            lease, jobs = client.claim_jobs(worker="bigw", n=1, ttl=120.0)
            assert [j.id for j in jobs] == [jid]
            result = {"tag": "big-result", "blob": "x" * (64 * 1024 * 1024)}
            encoded = encode_result(result)
            assert len(encoded) >= 64 * 1024 * 1024
            # Default inline_max (1 MiB) routes this through the chunk
            # endpoints; default chunk size is 4 MiB.
            view = client.complete_job(jid, lease.id, result)
            assert view.state == "DONE"

            out = tmp_path / "result.json"
            with open(out, "wb") as fh:
                info = client.download_result(jid, fh)
            assert info == {
                "size": len(encoded),
                "sha256": hashlib.sha256(encoded).hexdigest(),
            }
            assert out.stat().st_size == len(encoded)

            growth_mib = (_vm_hwm_kib(proc.pid) - base_kib) / 1024.0
            assert growth_mib < 32.0, (
                f"coordinator peak RSS grew {growth_mib:.1f} MiB while "
                f"relaying a {len(encoded) >> 20} MiB result"
            )
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
