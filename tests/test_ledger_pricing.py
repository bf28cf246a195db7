"""``run_cost_arrays`` prices each distinct iteration once.

A per-iteration reference prices every row of ``run_sizes`` through the
ledger's own model calls -- no deduplication, one call per section, the
preamble as a one-row batch -- and the memoized columns must equal it
byte for byte.  Counters on the models pin the structure: one call per
model per run, and far fewer rows than iterations on a long run.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BcastVariant, Schedule, SwapVariant
from repro.grid.block_cyclic import numroc
from repro.machine.comm_model import CommModel, GridTopology
from repro.machine.frontier import crusher_cluster
from repro.perf import PerfConfig, ledger, run_cost_arrays, run_sizes
from repro.perf.scaling import weak_scaling
from repro.sched.timeline import IterCosts

PANEL = ("fact", "lbcast", "d2h", "h2d")
SECTIONS = ("la", "left", "right")
#: The ledger's model entry points, by the name it imports them under.
MODELS = ("dgemm_seconds_array", "dtrsm_seconds_array", "rowcopy_seconds_array",
          "fact_seconds_array", "transfer_seconds_array")
COLLECTIVES = ("bcast_seconds_array", "allreduce_seconds_array",
               "allgatherv_seconds_array", "binexch_allgather_seconds_array",
               "scatterv_seconds_array")


def cluster_of(cfg):
    return crusher_cluster((cfg.p // cfg.pl) * (cfg.q // cfg.ql))


def weak_point(nnodes):
    """The paper's Fig. 7 run (1 node), or a Fig. 8 weak-scaling point."""
    if nnodes == 1:
        return PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
    return weak_scaling([nnodes])[0].report.cfg


def reference(cfg, cluster):
    """Every iteration priced in place: columns by name, and the preamble."""
    cm = CommModel(cluster, GridTopology(cfg.p, cfg.q, cfg.pl, cfg.ql))
    sz = run_sizes(cfg)
    cols = {"k": sz.k, "mode": sz.mode}
    nxt = sz.jb_next > 0
    priced = ledger._price_panel(cfg, cm, sz.m_fact[nxt], sz.m_l2[nxt],
                                 sz.jb_next[nxt])
    for name, column in zip(PANEL, priced):
        cols[name] = np.zeros(cfg.nblocks)
        cols[name][nxt] = column
    for name in SECTIONS:
        gather, comm, dtrsm, dgemm = ledger._price_sections(
            cfg, cm, sz.jb, sz.m_update, getattr(sz, f"w_{name}"))
        cols.update({f"{name}_gather": gather, f"{name}_comm": comm,
                     f"{name}_scatter": gather, f"{name}_dtrsm": dtrsm,
                     f"{name}_dgemm": dgemm})
    if cfg.schedule is Schedule.CLASSIC:
        return cols, None
    m0 = np.array([numroc(cfg.n, cfg.nb, 0, cfg.p)])
    panel0 = ledger._price_panel(cfg, cm, m0, m0, np.array([min(cfg.nb, cfg.n)]))
    return cols, IterCosts(k=-1, mode="preamble",
                           **{name: float(c[0]) for name, c in zip(PANEL, panel0)})


def assert_matches_reference(cfg):
    cluster = cluster_of(cfg)
    arrays = run_cost_arrays(cfg, cluster)
    want, preamble = reference(cfg, cluster)
    got = {name: v for name, v in vars(arrays).items() if isinstance(v, np.ndarray)}
    assert got.keys() == want.keys()
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].tobytes() == column.tobytes(), name
    # repr round-trips every float, sign of zero included
    assert repr(arrays.preamble) == repr(preamble)


@st.composite
def configs(draw):
    nb = draw(st.sampled_from([1, 3, 16, 64, 128, 512]))
    nblocks = draw(st.integers(1, 30))
    n = max(1, nblocks * nb - draw(st.integers(0, nb - 1)))  # ragged tails
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cfg = PerfConfig(
        n=n, nb=nb, p=p, q=q,
        pl=draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0])),
        ql=draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0])),
        schedule=draw(st.sampled_from(list(Schedule))),
        split_fraction=draw(st.floats(0.0, 1.0)),
        bcast=draw(st.sampled_from(list(BcastVariant))),
        swap=draw(st.sampled_from(list(SwapVariant))),
    )
    # MIX's threshold on or just below a width the run really has.
    sz = run_sizes(cfg)
    widths = np.unique(np.concatenate((sz.w_la, sz.w_left, sz.w_right)))
    threshold = int(draw(st.sampled_from(widths.tolist()))) - draw(st.integers(0, 1))
    return dataclasses.replace(cfg, swap_threshold=max(threshold, 0))


class TestEquivalence:
    @settings(max_examples=150)
    @given(configs())
    def test_random_configs(self, cfg):
        assert_matches_reference(cfg)

    @pytest.mark.parametrize("n, nb", [
        (1000, 64),  # n % nb != 0
        (512, 512),  # nblocks == 1
        (100, 512),  # n < nb
        (1, 1),
    ])
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_edges(self, n, nb, schedule):
        cfg = PerfConfig(n=n, nb=nb, p=3, q=2, pl=1, ql=2, schedule=schedule,
                         swap=SwapVariant.MIX)
        assert_matches_reference(cfg)

    @pytest.mark.parametrize("nnodes", [1, 8, 32, 128])
    def test_paper_runs(self, nnodes):
        assert_matches_reference(weak_point(nnodes))

    def test_classic_has_no_preamble(self):
        cfg = PerfConfig(n=4096, nb=256, p=2, q=2, pl=2, ql=2,
                         schedule=Schedule.CLASSIC)
        assert run_cost_arrays(cfg, cluster_of(cfg)).preamble is None


@pytest.fixture
def seen(monkeypatch):
    """Rows priced by each model, one entry per call."""
    rows = defaultdict(list)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            rows[name].append(np.size(out))
            return out
        return wrapper

    for name in MODELS:
        monkeypatch.setattr(ledger, name, counted(name, getattr(ledger, name)))
    for name in COLLECTIVES:
        monkeypatch.setattr(CommModel, name, counted(name, getattr(CommModel, name)))
    return rows


def price_uncached(cfg):
    return run_cost_arrays.__wrapped__(cfg, cluster_of(cfg))


class TestStructure:
    @pytest.mark.parametrize("swap", list(SwapVariant))
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_one_call_per_model(self, seen, schedule, swap):
        price_uncached(PerfConfig(n=20_000, nb=256, p=4, q=4, pl=2, ql=2,
                                  schedule=schedule, swap=swap))
        assembly = {
            SwapVariant.LONG: {"allgatherv_seconds_array"},
            SwapVariant.BINEXCH: {"binexch_allgather_seconds_array"},
            SwapVariant.MIX: {"allgatherv_seconds_array",
                              "binexch_allgather_seconds_array"},
        }[swap]
        called = dict.fromkeys(
            {*MODELS, "bcast_seconds_array", "allreduce_seconds_array",
             "scatterv_seconds_array", *assembly}, 1)
        called["transfer_seconds_array"] = 2  # once per link: d2h, h2d
        assert {name: len(calls) for name, calls in seen.items()} == called

    def test_long_run_prices_distinct_rows(self, seen):
        cfg = weak_point(128)
        arrays = price_uncached(cfg)
        assert cfg.nblocks == 5657
        # panel 0 plus each distinct iteration with a next panel, and the
        # three sections of every distinct iteration stacked
        (distinct,) = seen["fact_seconds_array"]
        assert distinct <= 500
        for name in ("fact_seconds_array", "allreduce_seconds_array",
                     "bcast_seconds_array"):
            assert seen[name] == [distinct], name
        assert seen["transfer_seconds_array"] == [distinct, distinct]  # d2h, h2d
        for name in ("dgemm_seconds_array", "dtrsm_seconds_array",
                     "rowcopy_seconds_array", "allgatherv_seconds_array",
                     "scatterv_seconds_array"):
            assert seen[name] == [3 * distinct], name
        for name in SECTIONS:
            assert getattr(arrays, f"{name}_gather") is getattr(arrays, f"{name}_scatter")
