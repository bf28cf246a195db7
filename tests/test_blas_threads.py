"""The numeric run's BLAS budget: one OpenBLAS thread per rank thread.

``run_spmd`` pins every loaded OpenBLAS (numpy's for DGEMM, scipy's for
DTRSM) to one thread for the whole launch and gives the caller's counts
back when the last concurrent launch exits, also when a rank raises.
One thread is also what makes a solve's bits independent of the host's
core count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import HPLConfig
from repro.blas.kernels import lapack
from repro.blas.threads import loaded_openblas
from repro.config import Schedule
from repro.errors import SpmdError
from repro.hpl.api import run_hpl

from .conftest import spmd

# scipy's OpenBLAS arrives with the first solve, not with ``repro.hpl``.
lapack()
LIBS = loaded_openblas()

pytestmark = pytest.mark.skipif(
    not LIBS, reason="no OpenBLAS thread-count symbol is loaded")


def test_numpy_and_scipy_each_bring_an_openblas():
    """Both wheels ship their own OpenBLAS; if LAPACK were not loaded
    above, every case here would quietly check numpy's alone."""
    assert len(LIBS) == 2


def _counts() -> list[int]:
    return [lib.get() for lib in LIBS]


@pytest.fixture
def caller_threads():
    """Set the caller's count on every library; the old one comes back
    after the test.  Returns what the libraries then read."""
    before = _counts()

    def set_to(threads: int) -> list[int]:
        for lib in LIBS:
            lib.set(threads)
        return _counts()

    yield set_to
    for lib, threads in zip(LIBS, before):
        lib.set(threads)


def test_every_openblas_reads_one_thread_inside_a_rank(caller_threads):
    prior = caller_threads(2)
    inside = spmd(4, lambda comm: _counts())
    assert inside == [[1] * len(LIBS)] * 4
    assert _counts() == prior


def test_the_prior_count_is_back_after_a_rank_raises(caller_threads):
    prior = caller_threads(2)

    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        return comm.recv(source=1)  # unwound by the abort

    with pytest.raises(SpmdError):
        spmd(2, main)
    assert _counts() == prior


def test_overlapping_launches_restore_when_the_last_one_exits(caller_threads):
    """Two launches from two threads: the first to finish leaves the
    budget in place for the other; the second restores the caller's."""
    prior = caller_threads(2)
    inside = {name: threading.Event() for name in "ab"}
    release = {name: threading.Event() for name in "ab"}
    seen: dict[str, list] = {}

    def launch(name: str) -> None:
        def main(comm):
            inside[name].set()
            assert release[name].wait(30)
            return _counts()

        seen[name] = spmd(2, main)

    threads = {name: threading.Thread(target=launch, args=(name,))
               for name in "ab"}
    try:
        for name in "ab":
            threads[name].start()
            assert inside[name].wait(30)
        release["a"].set()
        threads["a"].join(30)
        between = _counts()  # b is still running
    finally:
        for name in "ab":
            release[name].set()
            if threads[name].ident is not None:
                threads[name].join(30)
    assert between == [1] * len(LIBS)
    assert _counts() == prior
    assert seen == {name: [[1] * len(LIBS)] * 2 for name in "ab"}


def test_many_overlapping_launches_keep_the_budget(caller_threads):
    """More launching threads than cores, switching often: a lost
    update to the holder count would restore early (a rank reads the
    caller's count) or never (the caller keeps one thread)."""
    prior = caller_threads(2)
    seen: list[list[int]] = []

    def launches():
        for _ in range(10):
            seen.extend(spmd(2, lambda comm: _counts()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=launches) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[1] * len(LIBS)] * 120
    assert _counts() == prior


@pytest.mark.parametrize("cfg", [
    HPLConfig(n=512, nb=64, p=2, q=2, schedule=Schedule.CLASSIC),
    HPLConfig(n=1024, nb=128, p=1, q=1),
], ids=["n512-2x2-classic", "n1024-1x1"])
def test_the_solution_does_not_depend_on_the_callers_blas(caller_threads, cfg):
    """OpenBLAS may split a call differently on one thread and on two:
    without the budget both solves differ in their last bits."""
    xs = []
    for threads in (1, 2):
        caller_threads(threads)
        result = run_hpl(cfg)
        assert result.passed
        xs.append(result.x.tobytes())
    assert xs[0] == xs[1]


_FIRST_LAUNCH = """
import hashlib, json, sys
from repro import HPLConfig
from repro.blas import kernels
from repro.blas.threads import loaded_openblas
from repro.config import Schedule
from repro.hpl.api import run_hpl

if sys.argv[1] == "scipy-first":
    import scipy.linalg
assert ("scipy" in sys.modules) == (sys.argv[1] == "scipy-first")
load, seen = kernels.lapack, []

def lapack():  # every triangular solve of every rank passes through here
    linalg = load()
    seen.append(tuple(lib.get() for lib in loaded_openblas()))
    return linalg

kernels.lapack = lapack
result = run_hpl(HPLConfig(n=512, nb=64, p=2, q=2, schedule=Schedule.CLASSIC))
assert result.passed
print(json.dumps({"counts": sorted(set(seen)),
                  "x": hashlib.sha256(result.x.tobytes()).hexdigest()}))
"""


def test_the_first_launch_pins_the_lapack_it_loads():
    """A fresh process's first launch loads scipy's OpenBLAS on entry,
    so that library too runs one thread in every rank's first solve,
    and the solution has the bits of a process that imported scipy
    before the launch.  Both children start their BLAS at 2 threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    out = {
        order: json.loads(subprocess.run(
            [sys.executable, "-c", _FIRST_LAUNCH, order], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout)
        for order in ("fresh", "scipy-first")
    }
    assert out["fresh"]["counts"] == [[1, 1]]
    assert out["fresh"] == out["scipy-first"]
