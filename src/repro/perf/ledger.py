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

The integration tests cross-check the sizes against the flop/byte counts
*measured* by the instrumented numeric engine at small sizes, so the
performance simulation provably prices the same algorithm the numeric
engine executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import PerfConfig, Schedule, SwapVariant
from ..errors import ConfigError
from ..grid.block_cyclic import num_local_before_array, numroc, numroc_array
from ..machine.comm_model import CommModel, GridTopology
from ..machine.cpu_model import fact_seconds_array
from ..machine.gemm_model import (
    dgemm_seconds_array,
    dtrsm_seconds_array,
    rowcopy_seconds_array,
)
from ..machine.spec import ClusterSpec
from ..machine.transfer_model import transfer_seconds_array
from ..sched.fastpath import MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT, CostArrays
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
    mode: np.ndarray  # int8 MODE_* codes (see repro.sched.fastpath)
    c_f: np.ndarray  # focal grid column


def run_sizes(cfg: PerfConfig) -> RunSizes:
    """Every iteration's extents: pure int64 block-cyclic arithmetic."""
    n, nb, p, q = cfg.n, cfg.nb, cfg.p, cfg.q
    nblocks = cfg.nblocks
    k = np.arange(nblocks, dtype=np.int64)
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
    numroc_rf = numroc_array(n, nb, r_f, p)
    m_update = numroc_rf - num_local_before_array(j0n, nb, r_f, p)
    j1 = np.minimum(n, j0n + jb_next)
    m_l2 = numroc_rf - num_local_before_array(j1, nb, r_f, p)
    # Tallest per-process trailing share: with j0n block-aligned this is
    # the shifted-frame proc-0 share (equals max over r of the trailing
    # numroc; property-tested equivalence).
    m_fact = numroc_array(n - j0n, nb, 0, p)
    nloc_aug = numroc_array(n + 1, nb, c_f, q)
    lo = num_local_before_array(j0n, nb, c_f, q)
    w_trail = nloc_aug - lo

    zeros = np.zeros(nblocks, dtype=np.int64)
    if cfg.schedule is Schedule.SPLIT_UPDATE:
        n2 = np.rint(cfg.split_fraction * nloc_aug).astype(np.int64)
        sp = np.maximum(0, (nloc_aug - n2) // nb * nb)
        is_split = lo < sp
        mode = np.where(is_split, MODE_SPLIT, MODE_LOOKAHEAD).astype(np.int8)
        w_la = jb_next  # the focal column owns panel k+1's columns
        w_left = np.where(is_split, sp - lo - w_la, w_trail - w_la)
        w_right = np.where(is_split, nloc_aug - sp, zeros)
    elif cfg.schedule is Schedule.LOOKAHEAD:
        mode = np.full(nblocks, MODE_LOOKAHEAD, dtype=np.int8)
        w_la = jb_next
        w_left = w_trail - w_la
        w_right = zeros
    else:  # CLASSIC
        mode = np.full(nblocks, MODE_CLASSIC, dtype=np.int8)
        w_la = zeros
        w_left = w_trail
        w_right = zeros
    return RunSizes(
        k=k, m_update=m_update, m_l2=m_l2, m_fact=m_fact,
        w_la=w_la, w_left=w_left, w_right=w_right,
        jb=jb, jb_next=jb_next, mode=mode, c_f=c_f,
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


def _price_section(
    cfg: PerfConfig, cm: CommModel, sz: RunSizes, name: str
) -> dict[str, np.ndarray]:
    """The ``{name}_*`` cost columns of column section ``la``/``left``/``right``.

    Rows with ``w <= 0`` price to zero through the models' own payload
    guards.
    """
    gpu = cm.cluster.node.gpu
    topo = cm.topo
    members = topo.col_members(0)
    w = getattr(sz, f"w_{name}")
    u_bytes = 8.0 * sz.jb * w
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
    gather = rowcopy_seconds_array(gpu, u_bytes)
    return {
        f"{name}_gather": gather,
        f"{name}_comm": comm,
        f"{name}_scatter": gather,
        f"{name}_dtrsm": dtrsm_seconds_array(gpu, sz.jb, w),
        f"{name}_dgemm": dgemm_seconds_array(gpu, sz.m_update, w, sz.jb),
    }


def preamble_costs(
    cfg: PerfConfig, cluster: ClusterSpec, cm: CommModel | None = None
) -> IterCosts:
    """FACT + LBCAST of panel 0 before iteration 0 (``k = -1`` by convention).

    ``cm`` may be supplied to reuse a run's topology.
    """
    if cm is None:
        cm = CommModel(cluster, GridTopology(cfg.p, cfg.q, cfg.pl, cfg.ql))
    # Panel 0 as a one-row batch: grid column 0 factors all n rows.
    m_fact = np.array([numroc(cfg.n, cfg.nb, 0, cfg.p)])
    jb = np.array([min(cfg.nb, cfg.n)])
    fact, lbcast, d2h, h2d = _price_panel(cfg, cm, m_fact, m_fact, jb)
    return IterCosts(
        k=-1,
        mode="preamble",
        fact=float(fact[0]),
        lbcast=float(lbcast[0]),
        d2h=float(d2h[0]),
        h2d=float(h2d[0]),
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

    # FACT of panel k+1 plus its transfers and broadcast.
    fact, lbcast, d2h, h2d = np.zeros((4, cfg.nblocks), dtype=np.float64)
    nxt = sz.jb_next > 0
    fact[nxt], lbcast[nxt], d2h[nxt], h2d[nxt] = _price_panel(
        cfg, cm, sz.m_fact[nxt], sz.m_l2[nxt], sz.jb_next[nxt]
    )

    arrays = CostArrays(
        k=sz.k,
        mode=sz.mode,
        fact=fact,
        lbcast=lbcast,
        d2h=d2h,
        h2d=h2d,
        **_price_section(cfg, cm, sz, "la"),
        **_price_section(cfg, cm, sz, "left"),
        **_price_section(cfg, cm, sz, "right"),
        preamble=(
            preamble_costs(cfg, cluster, cm=cm)
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
