"""The HPL factorization loop: classic, look-ahead, and split-update.

All three schedules compute *the same factorization* (pivots bitwise;
split-update's factors bitwise equal to look-ahead's, classic's within
rounding -- the tests assert this); they differ only in the order phases
are issued, which is what determines how much communication the paper's
hardware could hide:

* ``CLASSIC`` -- fact, bcast, swap, update, strictly in sequence.  On real
  hardware the GPU idles during FACT/LBCAST/RS.
* ``LOOKAHEAD`` (Fig. 3) -- the trailing update is split so the *next*
  panel's columns are updated first and handed to FACT, whose work (and
  the subsequent LBCAST) then overlaps the rest of the update.  RS remains
  exposed.
* ``SPLIT_UPDATE`` (Fig. 6) -- additionally splits the local columns into
  a shrinking *left* and fixed-width *right* section.  Each section's
  row-swap communication is hidden under the other section's update:
  RS1 under UPDATE2, and RS2 -- communicated one iteration early, scattered
  back at the start of the next -- under UPDATE1.

The issue order *is* the task DAG of :mod:`repro.sched.timeline`, where
the paper's timelines are simulated: :func:`factorize` fills each
iteration's :class:`~repro.sched.timeline.IterCosts` with numeric
:class:`~repro.sched.timeline.Step` objects in place of seconds, from this
rank's rows of :func:`~repro.grid.block_cyclic.section_extents`, executes
the list :func:`~repro.sched.timeline.build_run` chains from them, and
stamps each task with what its step did.  FACT runs on a thread team;
everything else runs on the rank's own thread in list order, so "hiding"
is a statement about the DAG, not wall time.  What this module guarantees
is that the DAG is *numerically valid* -- every value is produced before
it is consumed -- which is the property the paper's Section III.C argues
informally and the tests check mechanically, by executing the list in
random dependency- and FIFO-respecting orders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..blas.kernels import FLOPS
from ..blas.threaded import TileWorkerPool
from ..config import HPLConfig, Schedule, SwapVariant
from ..errors import ConfigError
from ..grid.block_cyclic import MODE_NAMES, owning_process, section_extents
from ..sched.engine import Task
from ..sched.timeline import IterCosts, SectionCosts, Step, build_run
from .lbcast import broadcast_panel
from .matrix import DistMatrix
from .panel import Panel
from .pfact import factor_panel
from .rowswap import RowSwapper, SwapPlan, compute_swap_plan
from .timers import Timers
from .update import solve_u, trailing_dgemm


@dataclass
class FactorResult:
    """Outcome of the factorization loop on one rank."""

    ipiv: list[np.ndarray] = field(default_factory=list)  # per-panel pivots
    modes: list[str] = field(default_factory=list)  # per-iteration DAG shape
    #: The executed task list: wall ``start``/``end`` seconds from the loop's
    #: start, ``duration`` their difference (0 where the rank had no work),
    #: ``cpu`` the rank thread's CPU seconds inside the step (the rest of
    #: ``duration`` is waiting), ``flops`` and ``nbytes`` its work, and
    #: ``phase`` its step's label.
    tasks: list[Task] = field(default_factory=list)

    @property
    def timers(self) -> Timers:
        return Timers(self.tasks)


def _panel_width(n: int, nb: int, k: int) -> tuple[int, int]:
    j0 = k * nb
    return j0, min(nb, n - j0)


def swap_algo(cfg: HPLConfig, width: int) -> str:
    """Pick the SWAP algorithm for a section of ``width`` local columns.

    ``MIX`` follows HPL.dat semantics: binary exchange below the
    threshold, spread-roll above it.
    """
    if cfg.swap is SwapVariant.LONG:
        return "long"
    if cfg.swap is SwapVariant.BINEXCH:
        return "binexch"
    return "binexch" if width <= cfg.swap_threshold else "long"


class _Section:
    """Local columns ``[lo, hi)`` of iteration ``k``: the methods its RS
    and update steps run, on the swapper its own gather builds."""

    sw: RowSwapper | None = None

    def __init__(self, rank: "_Rank", k: int, lo: int, hi: int) -> None:
        self.rank, self.k, self.lo, self.hi = rank, k, lo, hi

    def gather(self) -> None:
        self.sw = self.rank.swapper(self.k, self.lo, self.hi)
        self.sw.gather()

    def communicate(self) -> None:
        self.sw.communicate()

    def scatter(self) -> None:
        self.sw.scatter_back()

    def u(self) -> np.ndarray:
        return self.sw.u[:, self.lo - self.sw.col_lo : self.hi - self.sw.col_lo]

    def dtrsm(self) -> None:
        u = self.u()
        solve_u(self.rank.panels[self.k], u)
        self.sw.store_u(u, self.lo - self.sw.col_lo)

    def dgemm(self) -> None:
        rank = self.rank
        trailing_dgemm(rank.mat, rank.panels[self.k], self.u(), self.lo, self.hi)

    def costs(self) -> SectionCosts:
        return SectionCosts(
            Step("RS", self.gather), Step("RS", self.communicate),
            Step("RS", self.scatter), Step("UPDATE", self.dtrsm),
            Step("UPDATE", self.dgemm),
        )


class _RS2Section(_Section):
    """Columns covered by panel ``k``'s right-section swap (RS2), which
    runs ahead as a queue: ``rs2.gather0.k`` and every ``rs2.gather.k``
    read the same ``right.gather`` field, so each gather takes the next
    panel in line.  The DAG orders the gathers, and puts each exchange
    between its gather and the next one."""

    @property
    def sw(self) -> RowSwapper:
        return self.rank.rs2[self.k]

    def gather(self) -> None:
        rank = self.rank
        k = rank.rs2_next
        rank.rs2_next += 1
        if k < rank.cfg.nblocks:
            rank.rs2[k] = rank.swapper(k, self.lo, self.hi)
            rank.rs2[k].gather()

    def communicate(self) -> None:
        sw = self.rank.rs2.get(self.rank.rs2_next - 1)
        if sw is not None:
            sw.communicate()


class _Rank:
    """One rank's factorization, as the steps of :func:`build_run`'s DAG."""

    def __init__(self, mat: DistMatrix, cfg: HPLConfig, pool: TileWorkerPool) -> None:
        self.mat, self.cfg, self.pool = mat, cfg, pool
        self.panels: dict[int, Panel] = {}  # by panel index
        self.plans: dict[int, SwapPlan] = {}
        self.rs2: dict[int, RowSwapper] = {}  # right-section swappers
        self.rs2_next = 0  # the panel the next RS2 gather swaps
        grid = mat.grid
        ext = section_extents(
            mat.n, cfg.nb, grid.p, grid.q, cfg.schedule, cfg.split_fraction,
            np.arange(-1, cfg.nblocks), grid.myrow, grid.mycol,
        )
        # (lo, la_hi, sp, nloc_aug, m_update, mode) of iteration k at entry
        # k + 1; entry 0, iteration -1, places panel 0.
        cols = (ext.lo, ext.la_hi, ext.sp, ext.nloc_aug, ext.m_update)
        self.ext = list(zip(
            *(a.tolist() for a in cols), map(MODE_NAMES.get, ext.mode.tolist())
        ))

    def swapper(self, k: int, lo: int, hi: int) -> RowSwapper:
        if k not in self.plans:
            j0, jb = _panel_width(self.mat.n, self.cfg.nb, k)
            self.plans[k] = compute_swap_plan(self.panels[k].ipiv, j0, jb)
        return RowSwapper(
            self.mat, self.plans[k], lo, hi, algo=swap_algo(self.cfg, hi - lo)
        )

    def fact_chain(self, c: IterCosts, k: int) -> IterCosts:
        """Fill ``c``'s d2h -> FACT -> h2d -> LBCAST with panel ``k``'s
        steps; FACT and its transfers only on the owning column."""
        mat, cfg, grid = self.mat, self.cfg, self.mat.grid
        if k >= cfg.nblocks:
            return c
        j0, jb = _panel_width(mat.n, cfg.nb, k)
        pcol = owning_process(j0, cfg.nb, grid.q)
        if grid.mycol == pcol:
            lc0, _, _, _, rows, _ = self.ext[k]  # iteration k - 1 places panel k
            lr0 = mat.mloc - rows
            view = mat.a[lr0:, lc0 : lc0 + jb]
            pos = mat.row_pos[lr0:]
            # The D2H/H2D transfers that bracket FACT on the paper's hardware.
            nbytes = 8.0 * rows * jb

            def fact() -> None:
                self.panels[k] = factor_panel(
                    grid.col_comm, view, pos, k, j0, jb, cfg, self.pool,
                    grid.myrow, grid.p,
                )

            c.d2h = Step("TRANSFER", nbytes=nbytes)
            c.fact = Step("FACT", fact)
            c.h2d = Step("TRANSFER", nbytes=nbytes)

        def lbcast() -> None:
            self.panels[k] = broadcast_panel(
                grid.row_comm, self.panels.get(k), pcol, cfg.bcast
            )

        c.lbcast = Step("LBCAST", lbcast)
        return c

    def costs(self) -> list[IterCosts]:
        """The run's :class:`IterCosts`, with numeric steps for seconds.

        Each iteration's mode and sections are this rank's rows of
        :func:`section_extents`.
        """
        classic = self.cfg.schedule is Schedule.CLASSIC
        out = [] if classic else [self.fact_chain(IterCosts(-1, "preamble"), 0)]
        prev = ""
        for k, (lo, la_hi, sp, nloc, _, mode) in enumerate(self.ext[1:]):
            c = self.fact_chain(IterCosts(k, mode), k if classic else k + 1)
            if mode == "split":
                if prev != "split":
                    self.rs2_next = k
                c.la = _Section(self, k, lo, la_hi).costs()
                c.left = _Section(self, k, la_hi, sp).costs()
                c.right = _RS2Section(self, k, sp, nloc).costs()
            elif prev == "split":
                # Panel k's RS2 covers [lo, nloc) (sp == lo here): scatter
                # it once, then update the look-ahead and remaining columns.
                c.la = _RS2Section(self, k, lo, la_hi).costs()
                c.left = _RS2Section(self, k, la_hi, nloc).costs()
                c.left.scatter = 0.0
            else:
                c.la = _Section(self, k, lo, la_hi).costs()
                c.left = _Section(self, k, la_hi, nloc).costs()
            out.append(c)
            prev = mode
        return out


def factorize(
    mat: DistMatrix, cfg: HPLConfig, pool: TileWorkerPool | None = None
) -> FactorResult:
    """Run the configured schedule; collective over the grid.

    On return ``mat.a`` holds the factorization (U on/above the global
    diagonal, L multipliers below) and the fully-updated RHS.
    """
    if mat.n != cfg.n or mat.nb != cfg.nb:
        raise ConfigError(
            f"matrix (n={mat.n}, nb={mat.nb}) does not match config "
            f"(n={cfg.n}, nb={cfg.nb})"
        )
    own_pool = pool is None
    if own_pool:
        pool = TileWorkerPool(cfg.fact_threads)
    try:
        rank = _Rank(mat, cfg, pool)
        costs = rank.costs()
        tasks = build_run(costs)
        t0 = time.perf_counter()
        for task in tasks:
            task.start = task.end = time.perf_counter() - t0
            step = task.duration
            if isinstance(step, Step):
                cpu0, flops0 = time.thread_time(), FLOPS.count
                step()
                task.cpu = time.thread_time() - cpu0
                task.flops = FLOPS.count - flops0
                task.phase, task.nbytes = step.label, step.nbytes
                task.end = time.perf_counter() - t0
                task.duration = task.end - task.start
    finally:
        if own_pool:
            pool.shutdown()
    return FactorResult(
        ipiv=[rank.panels[k].ipiv for k in range(cfg.nblocks)],
        modes=[c.mode for c in costs if c.k >= 0],
        tasks=tasks,
    )
