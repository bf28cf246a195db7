"""Exhaustive fast-vs-full engine equivalence.

The closed-form vectorized timeline (``fidelity="fast"``) must reproduce
the per-task object engine (``fidelity="full"``) not approximately but to
1e-9 relative on every reported number -- and, on a pinned config matrix,
bit-exactly.  The Hypothesis layer sweeps random problem sizes, grids,
node-local tilings, all three schedules, every broadcast variant, all
swap algorithms, and the whole split-fraction range.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BcastVariant, Schedule, SwapVariant
from repro.machine.frontier import crusher_cluster
from repro.perf import PerfConfig, run_cost_arrays, run_costs, simulate_run

REL = 1e-9
ABS = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=ABS)


def assert_reports_equivalent(cfg, cluster):
    full = simulate_run(cfg, cluster, fidelity="full")
    fast = simulate_run(cfg, cluster, fidelity="fast")
    assert _close(fast.makespan, full.makespan), (
        f"makespan {fast.makespan!r} != {full.makespan!r}"
    )
    assert _close(fast.score_tflops, full.score_tflops)
    assert len(fast.iterations) == len(full.iterations)
    for fi, si in zip(fast.iterations, full.iterations):
        assert fi.k == si.k
        for name in ("time", "gpu_active", "fact", "mpi", "transfer"):
            a, b = getattr(fi, name), getattr(si, name)
            assert _close(a, b), f"iter {fi.k} {name}: {a!r} != {b!r}"
    return fast, full


@st.composite
def perf_configs(draw):
    nb = draw(st.sampled_from([64, 128, 256, 512]))
    nblocks = draw(st.integers(min_value=1, max_value=24))
    # ragged tails included: n need not be a multiple of nb
    off = draw(st.integers(min_value=0, max_value=nb - 1))
    n = max(1, nblocks * nb - off)
    p = draw(st.sampled_from([1, 2, 3, 4, 8]))
    q = draw(st.sampled_from([1, 2, 3, 4]))
    pl = draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]))
    ql = draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
    schedule = draw(st.sampled_from(list(Schedule)))
    split_fraction = draw(
        st.one_of(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    bcast = draw(st.sampled_from(list(BcastVariant)))
    swap = draw(st.sampled_from(list(SwapVariant)))
    swap_threshold = draw(st.sampled_from([16, 64, 256]))
    fact_threads = draw(st.sampled_from([0, 1, 7]))
    return PerfConfig(
        n=n, nb=nb, p=p, q=q, pl=pl, ql=ql,
        schedule=schedule, split_fraction=split_fraction,
        bcast=bcast, swap=swap, swap_threshold=swap_threshold,
        fact_threads=fact_threads,
    )


class TestHypothesisEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(perf_configs())
    def test_fast_matches_full_everywhere(self, cfg):
        nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
        assert_reports_equivalent(cfg, crusher_cluster(nodes))


# A deterministic matrix where we claim the *stronger* property: the
# closed-form recurrence performs the engine's max/+ on the same floats in
# the same order, so every reported float is bit-identical, not merely
# 1e-9-close.
EXACT_MATRIX = [
    PerfConfig(n=40960, nb=512, p=4, q=2, pl=4, ql=2),
    PerfConfig(n=40960, nb=512, p=4, q=2, pl=4, ql=2,
               schedule=Schedule.LOOKAHEAD),
    PerfConfig(n=40960, nb=512, p=4, q=2, pl=4, ql=2,
               schedule=Schedule.CLASSIC),
    PerfConfig(n=25000, nb=384, p=8, q=4, pl=4, ql=2,
               swap=SwapVariant.BINEXCH),
    PerfConfig(n=25000, nb=384, p=8, q=4, pl=2, ql=4,
               swap=SwapVariant.MIX, swap_threshold=128),
    PerfConfig(n=7777, nb=256, p=2, q=2, pl=2, ql=2,
               split_fraction=0.0),
    PerfConfig(n=7777, nb=256, p=2, q=2, pl=2, ql=2,
               split_fraction=1.0),
    PerfConfig(n=513, nb=512, p=1, q=1, pl=1, ql=1),
    PerfConfig(n=512, nb=512, p=1, q=1, pl=1, ql=1,
               schedule=Schedule.CLASSIC),
    PerfConfig(n=30000, nb=512, p=4, q=4, pl=2, ql=2,
               bcast=BcastVariant.BLONG, fact_threads=7),
]


class TestBitExactMatrix:
    @pytest.mark.parametrize(
        "cfg", EXACT_MATRIX,
        ids=lambda c: f"{c.schedule.value}-n{c.n}-nb{c.nb}-{c.p}x{c.q}",
    )
    def test_bit_identical_reports(self, cfg):
        nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
        cluster = crusher_cluster(nodes)
        full = simulate_run(cfg, cluster, fidelity="full")
        fast = simulate_run(cfg, cluster, fidelity="fast")
        assert fast.makespan == full.makespan
        assert fast.score_tflops == full.score_tflops
        assert len(fast.iterations) == len(full.iterations)
        for fi, si in zip(fast.iterations, full.iterations):
            assert fi.k == si.k
            assert fi.time == si.time
            assert fi.gpu_active == si.gpu_active
            assert fi.fact == si.fact
            assert fi.mpi == si.mpi
            assert fi.transfer == si.transfer


class TestFastPathContracts:
    def test_cost_arrays_are_memoized(self):
        cfg = PerfConfig(n=8192, nb=512, p=2, q=2, pl=2, ql=2)
        cluster = crusher_cluster(1)
        assert run_cost_arrays(cfg, cluster) is run_cost_arrays(cfg, cluster)

    def test_memoized_costs_cannot_be_edited(self):
        """Every engine and every later caller reads the one memo: writes
        to its columns raise, and ``run_costs`` hands out private objects."""
        cfg = PerfConfig(n=8192, nb=512, p=2, q=2, pl=2, ql=2)
        cluster = crusher_cluster(1)
        before = simulate_run(cfg, cluster)
        arrays = run_cost_arrays(cfg, cluster)
        with pytest.raises(ValueError):
            arrays.left_dgemm[0] = 1e9
        with pytest.raises(ValueError):
            arrays.mode[:] = 0
        run_costs(cfg, cluster)[0].fact = 1e9  # the preamble, k = -1
        for fidelity in ("fast", "full"):
            after = simulate_run(cfg, cluster, fidelity=fidelity)
            assert after.makespan == before.makespan
            assert after.iterations == before.iterations

    def test_fidelity_knob_on_config(self):
        cfg = PerfConfig(n=4096, nb=512, p=2, q=2, pl=2, ql=2,
                         fidelity="full")
        cluster = crusher_cluster(1)
        via_cfg = simulate_run(cfg, cluster)  # honors cfg.fidelity="full"
        via_arg = simulate_run(cfg, cluster, fidelity="fast")
        assert via_cfg.makespan == via_arg.makespan

    def test_bad_fidelity_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            PerfConfig(n=4096, nb=512, p=2, q=2, pl=2, ql=2,
                       fidelity="approximate")
        cfg = PerfConfig(n=4096, nb=512, p=2, q=2, pl=2, ql=2)
        with pytest.raises(ConfigError):
            simulate_run(cfg, crusher_cluster(1), fidelity="turbo")
