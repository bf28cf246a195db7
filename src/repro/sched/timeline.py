"""Iteration DAG builders for the three schedules (paper Figs. 3 and 6).

Each iteration's phase durations arrive as an :class:`IterCosts`; the
builders chain iterations into one task list for the in-order-resource
engine, reproducing rocHPL's issue order.  The convention: *the row swap
for panel ``k`` executes at the start of iteration ``k``* (between the
previous iteration's update and this one's).

The builder serves the numeric run too: :func:`repro.hpl.driver.factorize`
fills the fields with :class:`Step` objects instead of seconds and runs
the list, so the simulator and the numeric engine execute one DAG.

* ``classic`` -- everything sequential; the GPU idles through FACT,
  LBCAST and the RS communication.
* ``lookahead`` (Fig. 3) -- the look-ahead columns are swapped and updated
  first and shipped to the CPU; FACT and LBCAST overlap the rest of the
  update; the full row-swap communication stays exposed.
* ``split`` (Fig. 6) -- RS is split: the left section's communication
  hides under the right section's update and vice versa, the right
  section's swap having been communicated one iteration early.  When the
  left section empties, iterations fall back to the look-ahead shape.

Resources: ``gpu`` (compute stream: DTRSM/DGEMM and the row gather/scatter
kernels), ``hd`` (host-device DMA), ``cpu`` (panel factorization), ``mpi``
(the network progression engine at this rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ScheduleError
from .engine import Task

GPU, HD, CPU, MPI = "gpu", "hd", "cpu", "mpi"


class Step:
    """Numeric work in place of a duration, timed under ``label``.

    ``nbytes`` is the host-device traffic a transfer step stands for (the
    numeric engine moves nothing).  ``a + b`` runs ``a`` then ``b``, so a
    task summing two sections' costs runs both sections' steps; a float
    operand (no work) adds nothing.
    """

    def __init__(
        self, label: str, *fns: Callable[[], None], nbytes: float = 0.0
    ) -> None:
        self.label, self.fns, self.nbytes = label, fns, nbytes

    def __add__(self, other: "Step | float") -> "Step":
        if isinstance(other, Step):
            return Step(self.label, *self.fns, *other.fns,
                        nbytes=self.nbytes + other.nbytes)
        return self

    __radd__ = __add__

    def __call__(self) -> None:
        for fn in self.fns:
            fn()


@dataclass
class SectionCosts:
    """Durations (or steps) of one column section's RS + update."""

    gather: float = 0.0  # GPU kernel packing outgoing rows
    comm: float = 0.0  # MPI: allgatherv + scatterv
    scatter: float = 0.0  # GPU kernel writing received rows
    dtrsm: float = 0.0  # GPU
    dgemm: float = 0.0  # GPU


@dataclass
class IterCosts:
    """All phase durations of one iteration at the focal rank.

    ``mode`` selects the DAG shape; the split schedule degrades to
    ``lookahead`` once the left section is exhausted (the ledger then
    emits the remainder in ``la`` + ``left`` and an empty ``right``).
    ``fact``/``lbcast``/``d2h``/``h2d`` describe panel ``k+1``'s
    factorization, which iteration ``k`` overlaps.
    """

    k: int
    mode: str  # "classic" | "lookahead" | "split"
    fact: float = 0.0
    lbcast: float = 0.0
    d2h: float = 0.0
    h2d: float = 0.0
    la: SectionCosts = field(default_factory=SectionCosts)
    left: SectionCosts = field(default_factory=SectionCosts)
    right: SectionCosts = field(default_factory=SectionCosts)


class _Builder:
    """Accumulates the chained task list across iterations."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.panel_ready: Task | None = None  # LBCAST end of the live panel
        self.pending_rs2: Task | None = None  # split: RS2 comm for next panel
        self.prev_update: Task | None = None  # classic: last trailing DGEMM

    def add(
        self,
        name: str,
        dur: float | Step,
        res: str | None,
        deps: list[Task | None],
        phase: str,
        tag: int,
    ) -> Task:
        task = Task(
            name=name,
            duration=dur if isinstance(dur, Step) else max(0.0, dur),
            resource=res,
            deps=tuple([d for d in deps if d is not None]),
            phase=phase,
            tag=tag,
        )
        self.tasks.append(task)
        return task

    def _fact_chain(self, c: IterCosts, dep: Task | None, tag: int) -> Task:
        """d2h -> FACT -> h2d -> LBCAST; returns the lbcast task."""
        d2h = self.add(f"d2h.{tag}", c.d2h, HD, [dep], "TRANSFER", tag)
        fact = self.add(f"fact.{tag}", c.fact, CPU, [d2h], "FACT", tag)
        h2d = self.add(f"h2d.{tag}", c.h2d, HD, [fact], "TRANSFER", tag)
        return self.add(f"lbcast.{tag}", c.lbcast, MPI, [h2d], "MPI", tag)

    # ------------------------------------------------------------------
    def preamble(self, costs: IterCosts) -> None:
        """FACT + LBCAST of panel 0 before the first iteration."""
        self.panel_ready = self._fact_chain(costs, None, costs.k)

    def classic(self, c: IterCosts) -> None:
        k = c.k
        lb = self._fact_chain(c, self.prev_update, k)
        sec = c.left
        g = self.add(f"rs.gather.{k}", sec.gather, GPU, [lb], "GPU", k)
        cm = self.add(f"rs.comm.{k}", sec.comm, MPI, [g], "MPI", k)
        s = self.add(f"rs.scatter.{k}", sec.scatter, GPU, [cm], "GPU", k)
        t = self.add(f"dtrsm.{k}", sec.dtrsm, GPU, [s], "GPU", k)
        self.prev_update = self.add(f"dgemm.{k}", sec.dgemm, GPU, [t], "GPU", k)

    def lookahead(self, c: IterCosts) -> None:
        """Fig. 3: panel k live; RS for panel k exposed at iteration start."""
        k = c.k
        panel = self.panel_ready
        g = self.add(
            f"rs.gather.{k}", c.la.gather + c.left.gather, GPU, [panel], "GPU", k
        )
        cm = self.add(f"rs.comm.{k}", c.la.comm + c.left.comm, MPI, [g], "MPI", k)
        s = self.add(
            f"rs.scatter.{k}", c.la.scatter + c.left.scatter, GPU, [cm], "GPU", k
        )
        # look-ahead columns: update, ship to host, FACT k+1, LBCAST
        t_la = self.add(f"dtrsm.la.{k}", c.la.dtrsm, GPU, [s, panel], "GPU", k)
        u_la = self.add(f"dgemm.la.{k}", c.la.dgemm, GPU, [t_la], "GPU", k)
        lb = self._fact_chain(c, u_la, k)
        # rest of the trailing update hides FACT/LBCAST when large enough
        t_r = self.add(f"dtrsm.rest.{k}", c.left.dtrsm, GPU, [panel], "GPU", k)
        u_r = self.add(f"dgemm.rest.{k}", c.left.dgemm, GPU, [t_r], "GPU", k)
        self.panel_ready = lb
        self.prev_update = u_r

    def split(self, c: IterCosts) -> None:
        """Fig. 6: panel k live; right section comm done (pending scatter)."""
        k = c.k
        panel = self.panel_ready
        if self.pending_rs2 is None:
            # First split iteration: communicate the right section inline.
            g0 = self.add(f"rs2.gather0.{k}", c.right.gather, GPU, [panel], "GPU", k)
            self.pending_rs2 = self.add(
                f"rs2.comm0.{k}", c.right.comm, MPI, [g0], "MPI", k
            )
        # gather la + left rows; scatter the right section back
        g_lal = self.add(
            f"rs.gather.lal.{k}", c.la.gather + c.left.gather, GPU, [panel], "GPU", k
        )
        sc_r = self.add(
            f"rs2.scatter.{k}", c.right.scatter, GPU, [self.pending_rs2], "GPU", k
        )
        c_la = self.add(f"rs.comm.la.{k}", c.la.comm, MPI, [g_lal], "MPI", k)
        sc_la = self.add(f"rs.scatter.la.{k}", c.la.scatter, GPU, [c_la], "GPU", k)
        # look-ahead update -> host -> FACT -> LBCAST (panel k+1)
        t_la = self.add(f"dtrsm.la.{k}", c.la.dtrsm, GPU, [sc_la, panel], "GPU", k)
        u_la = self.add(f"dgemm.la.{k}", c.la.dgemm, GPU, [t_la], "GPU", k)
        lb = self._fact_chain(c, u_la, k)
        # RS1 communication hides under UPDATE2
        c_l = self.add(f"rs1.comm.{k}", c.left.comm, MPI, [g_lal], "MPI", k)
        t2 = self.add(f"dtrsm.right.{k}", c.right.dtrsm, GPU, [sc_r, panel], "GPU", k)
        u2 = self.add(f"dgemm.right.{k}", c.right.dgemm, GPU, [t2], "GPU", k)
        # gather + communicate the right section for panel k+1
        g_r = self.add(f"rs2.gather.{k}", c.right.gather, GPU, [lb, u2], "GPU", k)
        c_r = self.add(f"rs2.comm.{k}", c.right.comm, MPI, [g_r], "MPI", k)
        # UPDATE1 hides RS2's communication
        sc_l = self.add(f"rs1.scatter.{k}", c.left.scatter, GPU, [c_l], "GPU", k)
        t1 = self.add(f"dtrsm.left.{k}", c.left.dtrsm, GPU, [sc_l, panel], "GPU", k)
        self.prev_update = self.add(f"dgemm.left.{k}", c.left.dgemm, GPU, [t1], "GPU", k)
        self.panel_ready = lb
        self.pending_rs2 = c_r

    def split_to_lookahead(self, c: IterCosts) -> None:
        """First fallback iteration: the pending RS2 covered the remainder."""
        k = c.k
        panel = self.panel_ready
        sc = self.add(
            f"rs2.scatter.{k}",
            c.la.scatter + c.left.scatter,
            GPU,
            [self.pending_rs2],
            "GPU",
            k,
        )
        self.pending_rs2 = None
        t_la = self.add(f"dtrsm.la.{k}", c.la.dtrsm, GPU, [sc, panel], "GPU", k)
        u_la = self.add(f"dgemm.la.{k}", c.la.dgemm, GPU, [t_la], "GPU", k)
        lb = self._fact_chain(c, u_la, k)
        t_r = self.add(f"dtrsm.rest.{k}", c.left.dtrsm, GPU, [panel], "GPU", k)
        u_r = self.add(f"dgemm.rest.{k}", c.left.dgemm, GPU, [t_r], "GPU", k)
        self.panel_ready = lb
        self.prev_update = u_r


def build_run(costs: list[IterCosts]) -> list[Task]:
    """Chain all iterations of a run into one submittable task list.

    The first entry must be the preamble (``k == -1`` by convention) when
    the schedule is look-ahead or split; classic runs need no preamble.
    """
    builder = _Builder()
    was_split = False
    for c in costs:
        if c.k < 0:
            builder.preamble(c)
            continue
        if c.mode == "classic":
            builder.classic(c)
        elif c.mode == "lookahead":
            if was_split and builder.pending_rs2 is not None:
                builder.split_to_lookahead(c)
            else:
                if builder.panel_ready is None:
                    raise ScheduleError("lookahead schedule needs a preamble")
                builder.lookahead(c)
            was_split = False
        elif c.mode == "split":
            if builder.panel_ready is None:
                raise ScheduleError("split schedule needs a preamble")
            builder.split(c)
            was_split = True
        else:
            raise ScheduleError(f"unknown iteration mode {c.mode!r}")
    return builder.tasks
