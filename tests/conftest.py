"""Shared fixtures and helpers for the pyroHPL test suite."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from repro.simmpi import run_spmd

# SPMD jobs spawn threads; keep hypothesis example counts modest and drop
# its per-example deadline (thread scheduling jitter would cause flakes).
settings.register_profile("repro", max_examples=25, deadline=None)
settings.load_profile("repro")

#: Watchdog for test SPMD jobs: long enough for slow CI, short enough that
#: a genuine deadlock fails the suite rather than hanging it.
TEST_WATCHDOG = 60.0


def spmd(nranks, fn, *args, **kwargs):
    """run_spmd with the test watchdog applied."""
    kwargs.setdefault("watchdog", TEST_WATCHDOG)
    return run_spmd(nranks, fn, *args, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def reference_solution(n: int, seed: int) -> np.ndarray:
    """numpy ground truth for the HPL-generated system."""
    from repro.hpl.matrix import generate_global

    a, b = generate_global(n, seed)
    return np.linalg.solve(a, b)


def claim_one(store, worker: str = "w0"):
    """Lease the oldest ready job the way a one-slot pool would.

    Returns the RUNNING :class:`~repro.service.Job` (its ``lease_id``
    is what ``complete_leased`` / ``fail_leased`` need), or ``None``
    when nothing is ready.
    """
    _lease, jobs = store.claim_batch(worker, limit=1)
    return jobs[0] if jobs else None


class Killed(BaseException):
    """Stands in for a kill that lands right after a COMMIT."""


class CommitSpy:
    """Counts the job store's committing transactions that changed rows.

    Patches ``_Connection.execute``, which every store statement goes
    through: a ``BEGIN ... COMMIT`` counts when ``total_changes``
    advanced inside it, an autocommit statement when it advanced across
    it.  Setting ``kill`` raises :class:`Killed` right after the next
    such commit has succeeded, and from every statement after it (a
    killed process runs nothing more) until ``monkeypatch.undo()``.
    """

    def __init__(self, monkeypatch) -> None:
        from repro.service import store

        self.commits = 0
        self.kill = self.dead = False
        begun: dict[int, int] = {}
        execute = store._Connection.execute

        def spy(conn, sql, *args):
            if self.dead:
                raise Killed
            before, in_txn = conn.total_changes, conn.in_transaction
            cursor = execute(conn, sql, *args)
            if sql.startswith("BEGIN"):
                begun[id(conn)] = before
            elif sql == "COMMIT":
                self._committed(conn.total_changes > begun.pop(id(conn)))
            elif not in_txn:
                self._committed(conn.total_changes > before)
            return cursor

        monkeypatch.setattr(store._Connection, "execute", spy)

    def _committed(self, changed: bool) -> None:
        if changed:
            self.commits += 1
            if self.kill:
                self.dead = True
                raise Killed


def _repro_process(*args) -> subprocess.Popen:
    """``python -m repro ARGS`` from the repo root, output piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )


def start_serve(workdir, *, workers: int = 0,
                port: int = 0) -> tuple[subprocess.Popen, str]:
    """A ``repro serve`` subprocess and its URL (read off its banner)."""
    proc = _repro_process("serve", "--workdir", workdir, "--port", port,
                          "--workers", workers, "--backoff", "0.01")
    line = proc.stdout.readline()
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def start_worker(url: str, *, n: int = 2, ttl: float = 30.0,
                 name: str = "") -> subprocess.Popen:
    """A ``repro workers --url`` fleet member subprocess."""
    args = ["workers", "--url", url, "-n", n, "--ttl", ttl,
            "--backoff", "0.01"]
    if name:
        args += ["--name", name]
    return _repro_process(*args)


def stop(proc: subprocess.Popen | None) -> None:
    """SIGKILL a helper subprocess (if still running) and reap it."""
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)
