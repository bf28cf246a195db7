"""Tier-1 checks the paper: every claim of :mod:`repro.perf.claims`, and
EXPERIMENTS.md's "ours" cells against the values those claims measure.

A failure names the claim: its id is the case's parameter."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.perf.claims import BY_ID, CLAIMS, Bundle

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
#: A table cell's claim tag: `claim.id`, or `claim.id[key]` for one entry
#: of a measure keyed by node count.
TAG = re.compile(r"`([a-z0-9_]+\.[a-z0-9_.]+)(?:\[(\d+)\])?`")


@pytest.fixture(scope="module")
def bundle():
    return Bundle()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(bundle, claim):
    failure = claim.failure(claim.measure(bundle))
    assert failure is None, failure


def test_experiments_cells_match_the_registry(bundle):
    """Each tagged cell prints its claim's value at the cell's precision
    (a cell with ``%`` prints the fraction times 100)."""
    cells = [
        cell
        for line in EXPERIMENTS.read_text().splitlines() if line.startswith("|")
        for cell in line.split("|") if TAG.search(cell)
    ]
    # the §IV.A headline table's seven cells and the Fig. 8 table's eight
    assert len(cells) == 15, cells
    stale = []
    for cell in cells:
        cid, key = TAG.search(cell).groups()
        value = BY_ID[cid].measure(bundle)
        value = value[int(key)] if key else value
        printed = re.search(r"\d+(?:\.\d+)?", TAG.sub("", cell)).group()
        decimals = len(printed.partition(".")[2])
        ours = f"{value * (100 if '%' in cell else 1):.{decimals}f}"
        if ours != printed:
            stale.append(f"{cid}{f'[{key}]' if key else ''}: cell {printed}, "
                         f"registry {ours}")
    assert not stale, stale
