"""Property-based end-to-end fuzzing of the full solver.

hypothesis draws random problem sizes, blockings, grids, variants and
schedules; every draw must pass HPL's residual test and match the serial
ground truth.  This is the suite's broadest net for interaction bugs
(odd trailing blocks x split fractions x recursion shapes x grids).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import (
    BcastVariant,
    HPLConfig,
    PFactVariant,
    Schedule,
    SwapVariant,
)
from repro.hpl.api import run_hpl

from .conftest import reference_solution


@st.composite
def hpl_configs(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    nb = draw(st.integers(2, 12))
    nblocks = draw(st.integers(2, 6))
    # n not necessarily a multiple of nb: exercise the short last panel
    n = nb * nblocks - draw(st.integers(0, nb - 1))
    schedule = draw(st.sampled_from(list(Schedule)))
    return HPLConfig(
        n=max(n, 2),
        nb=nb,
        p=p,
        q=q,
        schedule=schedule,
        pfact=draw(st.sampled_from(list(PFactVariant))),
        rfact=draw(st.sampled_from(list(PFactVariant))),
        nbmin=draw(st.integers(1, 8)),
        ndiv=draw(st.integers(2, 4)),
        bcast=draw(st.sampled_from(list(BcastVariant))),
        swap=draw(st.sampled_from(list(SwapVariant))),
        swap_threshold=draw(st.integers(0, 8)),
        split_fraction=draw(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
        ),
        fact_threads=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        row_major_grid=draw(st.booleans()),
    )


@settings(max_examples=30, deadline=None)
@given(hpl_configs())
def test_random_config_solves_correctly(cfg):
    result = run_hpl(cfg)
    assert result.passed, (cfg, result.resid)
    x_ref = reference_solution(cfg.n, cfg.seed)
    assert np.allclose(result.x, x_ref, atol=1e-7), cfg


@settings(max_examples=12, deadline=None)
@given(hpl_configs())
def test_schedules_agree_pairwise(cfg):
    """Whatever the draw, the overlapped schedules match classic exactly."""
    classic = run_hpl(
        cfg.replace(schedule=Schedule.CLASSIC)
    )
    other = run_hpl(cfg)
    assert np.array_equal(classic.x, other.x) or np.allclose(
        classic.x, other.x, atol=1e-12
    )
