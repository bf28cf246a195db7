"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's figures (or a set of
reported numbers) and writes the regenerated series to
``benchmarks/out/`` so the artifacts can be compared against the paper
(see EXPERIMENTS.md).  The paper's claims about those series are checked
through the claims registry (:mod:`repro.perf.claims`): a benchmark names
the claims its figure carries and checks them on the data it wrote.
Tier-1 checks the same claims (``tests/test_claims.py``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.perf.claims import BY_ID, Bundle

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def bundle() -> Bundle:
    """The runs and sweeps the figures are written from."""
    return Bundle()


def write_artifact(name: str, content: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(content)


def assert_claims(bundle: Bundle, *ids: str) -> None:
    """Check the named registry claims on ``bundle``."""
    failures = [BY_ID[cid].failure(BY_ID[cid].measure(bundle)) for cid in ids]
    assert not any(failures), [f for f in failures if f]
