"""Exhaustive equivalence of the closed-form timeline and its oracle.

``sched.fastpath.evaluate`` -- the only evaluator behind ``simulate_run``
-- must reproduce the per-task object engine (``build_run`` +
``simulate``, the producer of traces) not approximately but bit for bit
on every number it returns.  The Hypothesis layer sweeps random problem
sizes, grids, node-local tilings, all three schedules, every broadcast
variant, all swap algorithms, and the whole split-fraction range; a
pinned config matrix holds the segment edges of the fast path's
per-shape loops.  Both ways ``evaluate`` resolves a segment run every
case: speculating regime by regime from the first iteration, and
stepping every iteration on floats.  Long runs and inputs built to
defeat speculation hold the two to each other, sign bits included.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import BcastVariant, Schedule, SwapVariant
from repro.machine.frontier import crusher_cluster
from repro.perf import (PerfConfig, run_cost_arrays, run_costs, simulate_run,
                        simulate_timeline)
from repro.perf.scaling import weak_scaling
from repro.sched import fastpath
from repro.sched.engine import simulate
from repro.sched.fastpath import MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT, evaluate
from repro.sched.timeline import build_run

COLUMNS = ("k", "time", "gpu_active", "fact", "mpi", "transfer")

#: ``evaluate``'s policy constants for each way of resolving a segment.
#: "speculate" traces at the first iteration of every segment, starts
#: with one-iteration windows and traces again right after a failed one;
#: "float" never speculates.
SPECULATION = {
    "speculate": {"_MIN_RANGE": 0, "_FIRST_WINDOW": 1, "_SCALAR_CHUNK": 0},
    "float": {"_MIN_RANGE": sys.maxsize},
}


@pytest.fixture(params=sorted(SPECULATION))
def speculation(request, monkeypatch):
    for name, value in SPECULATION[request.param].items():
        monkeypatch.setattr(fastpath, name, value)
    return request.param


def evaluate_as(monkeypatch, arrays, setting):
    """``evaluate`` under one :data:`SPECULATION` setting (``None``: the
    module's own constants)."""
    with monkeypatch.context() as patch:
        for name, value in SPECULATION.get(setting, {}).items():
            patch.setattr(fastpath, name, value)
        return evaluate(arrays)


def assert_same_bits(got, want):
    """Every :class:`~repro.sched.fastpath.FastTimeline` field equal,
    sign bits included."""
    for name, value in vars(want).items():
        a, b = np.asarray(getattr(got, name)), np.asarray(value)
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.fixture
def passes(monkeypatch):
    """Counts ``evaluate``'s vectorized passes, the iterations they
    accept and the float chunks stepped between them."""
    counts = {"passes": 0, "accepted": 0, "chunks": 0}
    verify, step = fastpath._verify, fastpath._step

    def counted_verify(*args):
        good, *rest = verify(*args)
        counts["passes"] += 1
        counts["accepted"] += good
        return (good, *rest)

    def counted_step(loop, cols, a, b, state, end):
        counts["chunks"] += b > a
        return step(loop, cols, a, b, state, end)

    monkeypatch.setattr(fastpath, "_verify", counted_verify)
    monkeypatch.setattr(fastpath, "_step", counted_step)
    return counts


def assert_timelines_identical(arrays):
    """``evaluate`` equals the engine's tag/phase accounting on every
    :class:`~repro.sched.fastpath.FastTimeline` field: ``==``, no tolerance."""
    tl = simulate(build_run(arrays.to_iter_costs()))
    ks = arrays.k.tolist()
    reference = {
        "makespan": tl.makespan,
        "preamble_end": tl.span_of_tag(-1)[1] if arrays.preamble is not None else 0.0,
        "end": [tl.span_of_tag(k)[1] for k in ks],
        "gpu_busy": [tl.busy_in_tag(k, "gpu") for k in ks],
        "fact_busy": [tl.phase_in_tag(k, "FACT") for k in ks],
        "mpi_busy": [tl.phase_in_tag(k, "MPI") for k in ks],
        "transfer_busy": [tl.phase_in_tag(k, "TRANSFER") for k in ks],
    }
    fast = vars(evaluate(arrays))
    assert fast.keys() == reference.keys()
    for name, want in reference.items():
        np.testing.assert_array_equal(fast[name], want, err_msg=name)


def cost_arrays(cfg):
    nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
    return run_cost_arrays(cfg, crusher_cluster(nodes))


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
    # The fixture sets module constants once for all examples.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=perf_configs())
    def test_fast_matches_full_everywhere(self, speculation, cfg):
        assert_timelines_identical(cost_arrays(cfg))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=perf_configs())
    def test_runs_evaluate_as_their_iterations(self, speculation, cfg):
        """A row repeated over its run is the float each of its
        iterations gets on its own."""
        arrays = cost_arrays(cfg)
        assert_same_bits(evaluate(arrays), evaluate(arrays.per_iteration()))


# A deterministic matrix of the same property, holding the cases a random
# draw rarely lands on: every schedule, swap and broadcast variant, and
# the edges of the fast path's per-segment loops.
EXACT_MATRIX = [
    # the paper's Fig. 7 run, as simulate_run and simulate_timeline price it
    PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2),
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
    # split segment of one iteration: the first-split step, one loop
    # pass, then the fallback at iteration 1
    PerfConfig(n=4096, nb=512, p=2, q=2, pl=2, ql=2, split_fraction=0.7),
    PerfConfig(n=6000, nb=256, p=2, q=1, pl=2, ql=1, split_fraction=0.9),
    # split segment of two iterations (one pass with a pending RS2)
    PerfConfig(n=5961, nb=256, p=8, q=1, pl=1, ql=1, split_fraction=0.84),
    # one and two iterations in total
    PerfConfig(n=500, nb=512, p=2, q=2, pl=2, ql=2),
    PerfConfig(n=1000, nb=512, p=2, q=2, pl=2, ql=2),
    PerfConfig(n=25000, nb=384, p=8, q=4, pl=2, ql=4,
               swap=SwapVariant.MIX, swap_threshold=128, split_fraction=0.37),
]


class TestBitExactMatrix:
    @pytest.mark.parametrize(
        "cfg", EXACT_MATRIX,
        ids=lambda c: f"{c.schedule.value}-n{c.n}-nb{c.nb}-{c.p}x{c.q}",
    )
    def test_bit_identical_reports(self, speculation, cfg):
        assert_timelines_identical(cost_arrays(cfg))

    @pytest.mark.parametrize("pattern", ["SCSL", "SLSSL", "CSSCLLS", "LLSC"])
    def test_mode_sequences_the_ledger_never_emits(self, speculation, pattern):
        """``build_run`` accepts any mode order; so do the segments."""
        base = cost_arrays(EXACT_MATRIX[0]).per_iteration()
        codes = {"C": MODE_CLASSIC, "L": MODE_LOOKAHEAD, "S": MODE_SPLIT}
        mode = np.resize([codes[c] for c in pattern], base.nblocks)
        assert_timelines_identical(
            dataclasses.replace(base, mode=mode.astype(np.int8))
        )

    def test_iterations_are_a_view_of_the_columns(self):
        """Row for row, and the aggregates equal the per-object loops."""
        cfg = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
        report = simulate_run(cfg, crusher_cluster(1))
        its = report.iterations
        assert its is report.iterations and len(its) == 500
        for name in COLUMNS + ("hidden",):
            assert [getattr(it, name) for it in its] == getattr(report, name).tolist()
        hidden = [it for it in its if it.hidden]
        assert 0 < len(hidden) < len(its)
        assert report.hidden_time_fraction == sum(it.time for it in hidden) / sum(
            it.time for it in its
        )
        assert report.hidden_iteration_fraction == len(hidden) / len(its)
        assert report.first_exposed == next(it.k for it in its if not it.hidden)
        head = its[: len(its) // 5]
        flops = 0.0
        for it in head:
            trail = cfg.n - it.k * cfg.nb
            jb = min(cfg.nb, trail)
            flops += 2.0 * (trail - jb) * (trail + 1 - jb) * jb + jb * jb * (
                trail + 1 - jb
            )
        assert report.early_regime_tflops() == (
            flops / sum(it.time for it in head) / 1e12
        )


def long_run(nnodes):
    """The paper's Fig. 7 run (1 node), or a Fig. 8 weak-scaling point."""
    if nnodes == 1:
        cfg = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
    else:
        cfg = weak_scaling([nnodes])[0].report.cfg
    return run_cost_arrays(cfg, crusher_cluster(nnodes))


class TestSpeculation:
    """Regime-by-regime resolution against the float loop."""

    @pytest.mark.parametrize("nnodes", [1, 8, 32, 128])
    def test_long_runs(self, monkeypatch, nnodes):
        arrays = long_run(nnodes)
        want = evaluate_as(monkeypatch, arrays, "float")
        assert_same_bits(evaluate_as(monkeypatch, arrays, "speculate"), want)
        assert_same_bits(evaluate_as(monkeypatch, arrays, None), want)

    @pytest.mark.parametrize("nnodes, max_passes, max_scalar", [
        (1, 0, 1.0),  # 500 iterations: the float loop throughout
        (128, 16, 0.03),  # measured: 11 passes, 1.0 % not vectorized
    ])
    def test_structure(self, passes, nnodes, max_passes, max_scalar):
        """A change that quietly stops speculating fails here."""
        arrays = long_run(nnodes)  # prices through evaluate: uncount it
        passes.update(dict.fromkeys(passes, 0))
        evaluate(arrays)
        assert passes["passes"] <= max_passes
        assert 1 - passes["accepted"] / arrays.nblocks <= max_scalar

    @pytest.fixture(scope="class")
    def base(self):
        """2000 iterations, long enough to speculate on by default."""
        return cost_arrays(
            PerfConfig(n=256_000, nb=128, p=4, q=2, pl=4, ql=2)).per_iteration()

    @staticmethod
    def one_shape(base, mode, **columns):
        return dataclasses.replace(
            base, mode=np.full(base.nblocks, mode, dtype=np.int8), **columns)

    @staticmethod
    def cost_columns(base):
        return [f.name for f in dataclasses.fields(base)
                if f.name not in ("runs", "mode", "preamble")]

    def assert_float_bits(self, monkeypatch, arrays):
        want = evaluate_as(monkeypatch, arrays, "float")
        assert_same_bits(evaluate_as(monkeypatch, arrays, "speculate"), want)
        assert_same_bits(evaluate_as(monkeypatch, arrays, None), want)

    @pytest.mark.parametrize("mode, column", [
        (MODE_LOOKAHEAD, "fact"), (MODE_SPLIT, "right_comm"),
    ])
    def test_winner_flipping_every_iteration(self, monkeypatch, passes, base,
                                             mode, column):
        big = 10 * float(np.median(base.la_dgemm + base.left_dgemm))
        flip = np.where(base.k % 2 == 0, big, 0.0)
        arrays = self.one_shape(base, mode, **{column: flip})
        want = evaluate_as(monkeypatch, arrays, "float")
        passes.update(dict.fromkeys(passes, 0))
        assert_same_bits(evaluate(arrays), want)
        assert passes["accepted"] == 0
        assert 1 <= passes["passes"] <= passes["chunks"]
        self.assert_float_bits(monkeypatch, arrays)

    @pytest.mark.parametrize("mode", [MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT])
    def test_exact_ties(self, monkeypatch, base, mode):
        """Equal durations everywhere: every ``max`` sees equal operands."""
        ones = np.ones(base.nblocks)
        self.assert_float_bits(monkeypatch, self.one_shape(
            base, mode, **{name: ones for name in self.cost_columns(base)}))

    @pytest.mark.parametrize("mode", [MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT])
    def test_zero_and_negative_columns(self, monkeypatch, base, mode):
        zeros = np.zeros(base.nblocks)
        self.assert_float_bits(monkeypatch, self.one_shape(
            base, mode, **{name: zeros for name in self.cost_columns(base)}))
        # every third iteration negative before the clamp, -0.0 included
        sign = np.where(base.k % 3 == 0, -1.0, 1.0)
        self.assert_float_bits(monkeypatch, self.one_shape(base, mode, **{
            name: sign * getattr(base, name) for name in self.cost_columns(base)}))

    def test_segments_shorter_than_the_first_window(self, monkeypatch, passes,
                                                    base):
        monkeypatch.setattr(fastpath, "_MIN_RANGE", 0)
        short = fastpath._FIRST_WINDOW // 2
        mode = np.where(base.k // short % 2 == 0, MODE_SPLIT, MODE_LOOKAHEAD)
        arrays = dataclasses.replace(base, mode=mode.astype(np.int8))
        assert_same_bits(evaluate(arrays), evaluate_as(monkeypatch, arrays, "float"))
        assert passes["passes"] == 0
        self.assert_float_bits(monkeypatch, arrays)


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
        assert simulate_timeline(cfg, cluster).makespan == before.makespan
        after = simulate_run(cfg, cluster)
        assert after.makespan == before.makespan
        assert after.iterations == before.iterations
        for name in COLUMNS + ("hidden",):
            with pytest.raises(ValueError):
                getattr(after, name)[0] = 0
