"""Shared fixtures and helpers for the pyroHPL test suite."""

from __future__ import annotations

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
