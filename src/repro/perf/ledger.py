"""Exact per-iteration work/volume ledger, priced into task durations.

For every iteration ``k`` at once the ledger computes -- from the same
block-cyclic index math the numeric engine uses -- how many flops and bytes
each phase moves at the *focal* process (the owner of panel ``k+1``'s block,
i.e. the process whose FACT and look-ahead sit on the critical path, which
is also the process rocHPL's per-iteration timers follow).
:func:`run_sizes` holds that pure-integer description of the work;
:func:`run_cost_arrays` has the machine models convert it into seconds, one
numpy column per phase, producing the
:class:`~repro.sched.fastpath.CostArrays` both timeline evaluators consume
(:func:`run_costs` is the same numbers expanded to one
:class:`~repro.sched.timeline.IterCosts` per iteration).

Block-cyclic ownership makes every size a step function of ``k``, so
:func:`run_cost_arrays` prices each distinct iteration once -- the first
of every run of equal sizes, in one call per machine model -- and repeats
the costs out.  That is exact because every pricing entry point is
elementwise: a row prices to the same float wherever it sits in a batch
(``TestScalarBatchConsistency`` in ``tests/test_machine_models.py``).

The section bounds are the focal rank's rows of
:func:`~repro.grid.block_cyclic.section_extents`, the function the numeric
driver takes its own rank's bounds from, so the performance simulation
prices the algorithm the numeric engine executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import PerfConfig, Schedule, SwapVariant
from ..errors import ConfigError
from ..grid.block_cyclic import MODE_SPLIT, numroc, numroc_array, section_extents
from ..machine.comm_model import CommModel, GridTopology
from ..machine.cpu_model import fact_seconds_array
from ..machine.gemm_model import (
    dgemm_seconds_array,
    dtrsm_seconds_array,
    rowcopy_seconds_array,
)
from ..machine.spec import ClusterSpec
from ..machine.transfer_model import transfer_seconds_array
from ..sched.fastpath import CostArrays
from ..sched.timeline import IterCosts


def time_sharing_threads(cores: int, pl: int, ql: int) -> int:
    """Section III.B: FACT threads per process under core time-sharing.

    With ``C`` cores and a ``pl x ql`` node-local grid, each rank gets a
    root core; the remaining ``Cbar = C - pl*ql`` form a pool split into
    ``pl`` row groups, so each FACT uses ``T = 1 + Cbar / pl`` threads.
    """
    cbar = cores - pl * ql
    if cbar < 0:
        raise ConfigError(f"{pl * ql} ranks exceed {cores} cores")
    return 1 + cbar // pl


@dataclass(frozen=True)
class RunSizes:
    """Local extents at the focal process, one row per iteration ``k``."""

    k: np.ndarray  # iteration indices [0, nblocks)
    m_update: np.ndarray  # local rows with position >= (k+1)*nb (update target)
    m_l2: np.ndarray  # local rows below panel k+1's block (L2 height)
    m_fact: np.ndarray  # tallest per-process share of panel k+1's rows
    w_la: np.ndarray  # look-ahead section local width
    w_left: np.ndarray
    w_right: np.ndarray
    jb: np.ndarray  # panel k width
    jb_next: np.ndarray  # panel k+1 width (0 when none)
    mode: np.ndarray  # int8 MODE_* codes (see repro.grid.block_cyclic)
    c_f: np.ndarray  # focal grid column


def run_sizes(cfg: PerfConfig) -> RunSizes:
    """Every iteration's extents: pure int64 block-cyclic arithmetic."""
    n, nb, p, q = cfg.n, cfg.nb, cfg.p, cfg.q
    k = np.arange(cfg.nblocks, dtype=np.int64)
    j0 = k * nb
    jb = np.minimum(nb, n - j0)
    j0n = j0 + jb
    jb_next = np.where(j0n < n, np.minimum(nb, n - j0n), 0)
    # Focal process: owner of panel k+1's block.  The last iteration has no
    # next panel; its remaining work is the RHS column's swap/update, so the
    # focal column is the RHS owner's.
    has_next = jb_next > 0
    blk = np.where(has_next, k + 1, k)
    r_f = blk % p
    c_f = np.where(has_next, blk % q, (n // nb) % q)
    ext = section_extents(n, nb, p, q, cfg.schedule, cfg.split_fraction, k, r_f, c_f)
    m_l2 = ext.m_update - jb_next  # the focal row owns panel k+1's rows
    # Tallest per-process trailing share: with j0n block-aligned this is
    # the shifted-frame proc-0 share (equals max over r of the trailing
    # numroc; property-tested equivalence).
    m_fact = numroc_array(n - j0n, nb, 0, p)
    split = ext.mode == MODE_SPLIT
    return RunSizes(
        k=k, m_update=ext.m_update, m_l2=m_l2, m_fact=m_fact,
        w_la=ext.la_hi - ext.lo,
        w_left=np.where(split, ext.sp, ext.nloc_aug) - ext.la_hi,
        w_right=np.where(split, ext.nloc_aug - ext.sp, 0),
        jb=jb, jb_next=jb_next, mode=ext.mode, c_f=c_f,
    )


# Collectives are priced on grid row 0 and grid column 0 for every
# iteration: nodes tile the grid in ``pl x ql`` blocks, so which members of
# a row (column) share a node depends only on their columns (rows), and the
# focal row and column have exactly row 0's and column 0's link structure.


def _price_panel(
    cfg: PerfConfig,
    cm: CommModel,
    m_fact: np.ndarray,
    m_l2: np.ndarray,
    jb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fact, lbcast, d2h, h2d) of factoring panels of width ``jb >= 1``.

    FACT is the CPU compute plus the per-column pivot collectives.
    """
    node = cm.cluster.node
    topo = cm.topo
    threads = cfg.fact_threads or time_sharing_threads(node.cpu.cores, cfg.pl, cfg.ql)
    fact = fact_seconds_array(node.cpu, np.maximum(m_fact, jb), jb, threads)
    fact = fact + jb * cm.allreduce_seconds_array(
        topo.col_members(0), 2.0 * 8.0 * jb, per_hop_overhead=5e-6
    )
    panel_bytes = 8.0 * (m_l2 * jb + jb**2 + jb + 4)
    lbcast = cm.bcast_seconds_array(topo.row_members(0), panel_bytes, cfg.bcast)
    move = 8.0 * m_fact * jb
    return (
        fact,
        lbcast,
        transfer_seconds_array(node.d2h, move),
        transfer_seconds_array(node.h2d, move),
    )


def _price_sections(
    cfg: PerfConfig,
    cm: CommModel,
    jb: np.ndarray,
    m_update: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gather, comm, dtrsm, dgemm) of column sections of local width ``w``.

    The scatter costs what the gather does.  Rows with ``w <= 0`` price to
    zero through the models' own payload guards.
    """
    gpu = cm.cluster.node.gpu
    topo = cm.topo
    members = topo.col_members(0)
    u_bytes = 8.0 * jb * w
    if cfg.swap is SwapVariant.BINEXCH:
        assemble = cm.binexch_allgather_seconds_array(members, u_bytes)
    elif cfg.swap is SwapVariant.MIX:
        assemble = np.where(
            w <= cfg.swap_threshold,
            cm.binexch_allgather_seconds_array(members, u_bytes),
            cm.allgatherv_seconds_array(members, u_bytes),
        )
    else:
        assemble = cm.allgatherv_seconds_array(members, u_bytes)
    comm = assemble + cm.scatterv_seconds_array(
        (0, 0), members, u_bytes * (topo.p - 1) / max(topo.p, 1)
    )
    return (
        rowcopy_seconds_array(gpu, u_bytes),
        comm,
        dtrsm_seconds_array(gpu, jb, w),
        dgemm_seconds_array(gpu, m_update, w, jb),
    )


@lru_cache(maxsize=32)
def run_cost_arrays(cfg: PerfConfig, cluster: ClusterSpec) -> CostArrays:
    """Phase costs of the whole run, one aligned numpy column per phase.

    Memoized on the (frozen, hashable) config and cluster specs, so
    repeated simulations of the same point -- scaling sweeps, service job
    retries, benchmark loops -- price the run exactly once.  The cached
    columns are shared by every caller and therefore read-only.
    """
    cm = CommModel(cluster, GridTopology(cfg.p, cfg.q, cfg.pl, cfg.ql))
    sz = run_sizes(cfg)

    # Price the first iteration of each run of equal sizes, then repeat.
    changed = np.zeros(cfg.nblocks, dtype=bool)
    changed[0] = True
    for col in (sz.m_update, sz.m_l2, sz.m_fact, sz.w_la, sz.w_left,
                sz.w_right, sz.jb, sz.jb_next):
        changed[1:] |= col[1:] != col[:-1]
    first = np.flatnonzero(changed)
    runs = np.diff(first, append=cfg.nblocks)

    # FACT of panel k+1 plus its transfers and broadcast; panel 0 (the
    # preamble) rides in front.  Only the last iteration, always a run of
    # its own, has no next panel.
    nxt = first[:-1]
    m0 = numroc(cfg.n, cfg.nb, 0, cfg.p)  # grid column 0 factors all n rows
    panel = _price_panel(
        cfg, cm,
        np.concatenate(([m0], sz.m_fact[nxt])),
        np.concatenate(([m0], sz.m_l2[nxt])),
        np.concatenate(([min(cfg.nb, cfg.n)], sz.jb_next[nxt])),
    )
    fact, lbcast, d2h, h2d = (np.repeat(np.append(c[1:], 0.0), runs) for c in panel)

    # The la / left / right sections stacked into one batch.
    gather, comm, dtrsm, dgemm = (
        np.repeat(c.reshape(3, -1), runs, axis=1)
        for c in _price_sections(
            cfg, cm, np.tile(sz.jb[first], 3), np.tile(sz.m_update[first], 3),
            np.concatenate((sz.w_la[first], sz.w_left[first], sz.w_right[first])),
        )
    )
    sections = {}
    for name, g, c, t, u in zip(("la", "left", "right"), gather, comm, dtrsm, dgemm):
        sections.update({
            f"{name}_gather": g, f"{name}_comm": c, f"{name}_scatter": g,
            f"{name}_dtrsm": t, f"{name}_dgemm": u,
        })

    arrays = CostArrays(
        k=sz.k,
        mode=sz.mode,
        fact=fact,
        lbcast=lbcast,
        d2h=d2h,
        h2d=h2d,
        **sections,
        preamble=(
            IterCosts(
                k=-1, mode="preamble", fact=float(panel[0][0]),
                lbcast=float(panel[1][0]), d2h=float(panel[2][0]),
                h2d=float(panel[3][0]),
            )
            if cfg.schedule is not Schedule.CLASSIC
            else None
        ),
    )
    for column in vars(arrays).values():
        if isinstance(column, np.ndarray):
            column.setflags(write=False)
    return arrays


def run_costs(cfg: PerfConfig, cluster: ClusterSpec) -> list[IterCosts]:
    """Costs for the whole run, preamble included where the schedule needs it."""
    return run_cost_arrays(cfg, cluster).to_iter_costs()
