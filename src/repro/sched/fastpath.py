"""Closed-form timeline evaluation of the fixed iteration DAG shapes.

:mod:`repro.sched.timeline` emits one of four task sub-graphs per
iteration (classic / lookahead / split / split-to-lookahead fallback) and
the in-order-resource engine resolves them task by task.  Because the
shapes are fixed, every start/end time the engine would compute is a
closed-form max-plus recurrence over a handful of scalars carried across
iterations -- the four resource frees (gpu / hd / cpu / mpi), the live
panel's LBCAST end and the pending right-section communication.
:func:`evaluate` walks those recurrences directly over cost arrays,
allocating no :class:`~repro.sched.engine.Task` objects, and reproduces
the engine's timings **bit for bit**: every ``+`` is performed on the same
float values in the same order the engine would, including the per-task
``max(0.0, duration)`` clamp the builder applies.

A run is a few *segments* of consecutive iterations with one shape (a
split run is ``split x many``, one fallback iteration, ``lookahead x
many``), so the shape is decided per segment, not per iteration: each
segment clamps and reads only the columns its shape uses and runs that
shape's own loop, the carried scalars flowing from one segment into the
next.

The loops omit every ``max`` whose winner is fixed by the shape itself.
Those omissions rest on two invariants and nothing else (in particular on
no property of realistic inputs):

1. every duration is clamped ``>= 0.0`` before it is added;
2. IEEE-754 addition is monotone: ``x + d >= x`` whenever ``d >= 0``.

Together they order the ends of any dependency chain inside one iteration
(a task ends no earlier than anything it waited for), and each omitted
``max`` is annotated with the chain that decides it.

What the fast path does *not* produce: the per-task trace (there are no
tasks).  Traces: :func:`repro.perf.hplsim.simulate_timeline`, the engine
these loops are tested against.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from ..errors import ScheduleError
from .timeline import IterCosts, SectionCosts

#: Iteration-mode codes used by :class:`CostArrays.mode`.
MODE_CLASSIC, MODE_LOOKAHEAD, MODE_SPLIT = 0, 1, 2
MODE_NAMES = {MODE_CLASSIC: "classic", MODE_LOOKAHEAD: "lookahead", MODE_SPLIT: "split"}


@dataclass
class CostArrays:
    """All per-iteration phase costs of a run as aligned numpy arrays.

    One row per iteration ``k`` (the preamble, when the schedule needs
    one, rides along as a scalar :class:`IterCosts`).  Produced in one
    shot by :func:`repro.perf.ledger.run_cost_arrays`, whose memoized
    instances are shared and have read-only columns.
    """

    k: np.ndarray  # int64 iteration indices [0, nblocks)
    mode: np.ndarray  # int8 MODE_* codes
    fact: np.ndarray
    lbcast: np.ndarray
    d2h: np.ndarray
    h2d: np.ndarray
    la_gather: np.ndarray
    la_comm: np.ndarray
    la_scatter: np.ndarray
    la_dtrsm: np.ndarray
    la_dgemm: np.ndarray
    left_gather: np.ndarray
    left_comm: np.ndarray
    left_scatter: np.ndarray
    left_dtrsm: np.ndarray
    left_dgemm: np.ndarray
    right_gather: np.ndarray
    right_comm: np.ndarray
    right_scatter: np.ndarray
    right_dtrsm: np.ndarray
    right_dgemm: np.ndarray
    preamble: IterCosts | None = None

    @property
    def nblocks(self) -> int:
        return len(self.k)

    def to_iter_costs(self) -> list[IterCosts]:
        """Expand into one fresh :class:`IterCosts` per iteration."""
        out: list[IterCosts] = []
        if self.preamble is not None:
            out.append(deepcopy(self.preamble))
        # Python lists beat numpy scalar indexing for per-row reads.
        col = {
            name: column.tolist()
            for name, column in vars(self).items()
            if isinstance(column, np.ndarray)
        }

        def sections(name: str) -> list[SectionCosts]:
            return [
                SectionCosts(gather=g, comm=c, scatter=s, dtrsm=t, dgemm=u)
                for g, c, s, t, u in zip(
                    col[f"{name}_gather"],
                    col[f"{name}_comm"],
                    col[f"{name}_scatter"],
                    col[f"{name}_dtrsm"],
                    col[f"{name}_dgemm"],
                )
            ]

        la, left, right = sections("la"), sections("left"), sections("right")
        for i in range(self.nblocks):
            out.append(
                IterCosts(
                    k=col["k"][i],
                    mode=MODE_NAMES[col["mode"][i]],
                    fact=col["fact"][i],
                    lbcast=col["lbcast"][i],
                    d2h=col["d2h"][i],
                    h2d=col["h2d"][i],
                    la=la[i],
                    left=left[i],
                    right=right[i],
                )
            )
        return out


@dataclass
class FastTimeline:
    """Per-iteration timings of a run, computed without task objects.

    Field-for-field these equal what the object engine reports through
    ``span_of_tag`` / ``busy_in_tag`` / ``phase_in_tag``.
    """

    makespan: float
    preamble_end: float  # end of the k=-1 preamble chain (0.0 without one)
    end: np.ndarray  # latest task end per iteration (monotone)
    gpu_busy: np.ndarray  # busy_in_tag(k, "gpu")
    fact_busy: np.ndarray  # phase_in_tag(k, "FACT")
    mpi_busy: np.ndarray  # phase_in_tag(k, "MPI")
    transfer_busy: np.ndarray  # phase_in_tag(k, "TRANSFER")


# Resolved DAG shapes (the builder's was_split / pending_rs2 state machine).
_CLASSIC, _LOOKAHEAD, _SPLIT, _S2L = 0, 1, 2, 3


def _resolve_shapes(
    mode: np.ndarray, has_preamble: bool
) -> list[tuple[int, int, int, bool]]:
    """Replay ``build_run``'s mode dispatch over runs of equal mode.

    Returns run-length segments ``(shape, lo, hi, first_split)``: the
    iterations ``[lo, hi)`` share one DAG shape, and ``first_split`` marks
    a split segment whose first iteration must communicate its right
    section inline (no pending RS2 from an earlier split iteration).
    """
    if not len(mode):
        return []
    cuts = [0, *(np.flatnonzero(np.diff(mode)) + 1).tolist(), len(mode)]
    segments: list[tuple[int, int, int, bool]] = []
    was_split = False
    pending = False
    panel_live = has_preamble
    for lo, hi in zip(cuts, cuts[1:]):
        m = int(mode[lo])
        if m == MODE_CLASSIC:
            segments.append((_CLASSIC, lo, hi, False))
        elif m == MODE_LOOKAHEAD:
            if was_split and pending:
                segments.append((_S2L, lo, lo + 1, False))
                pending = False
                lo += 1
            elif not panel_live:
                raise ScheduleError("lookahead schedule needs a preamble")
            if lo < hi:
                segments.append((_LOOKAHEAD, lo, hi, False))
            was_split = False
            panel_live = True
        elif m == MODE_SPLIT:
            if not panel_live:
                raise ScheduleError("split schedule needs a preamble")
            segments.append((_SPLIT, lo, hi, not pending))
            pending = was_split = panel_live = True
        else:
            raise ScheduleError(f"unknown iteration mode {m!r}")
    return segments


def _lists(*columns: np.ndarray) -> list[list[float]]:
    return [column.tolist() for column in columns]


def evaluate(ca: CostArrays) -> FastTimeline:
    """Resolve the run's timeline with max-plus recurrences over arrays.

    Bit-identical to ``simulate(build_run(ca.to_iter_costs()))`` in every
    reported quantity; see the module docstring for the argument.
    """
    # Task durations exactly as the builder creates them: every duration
    # is clamped at zero (Task construction applies max(0.0, dur)), and
    # merged RS tasks sum the la + left components before the clamp.
    # The d2h -> FACT -> h2d -> LBCAST chain is part of every shape.
    z = 0.0
    d2h_a = np.maximum(ca.d2h, z)
    fact_a = np.maximum(ca.fact, z)
    h2d_a = np.maximum(ca.h2d, z)
    lb_a = np.maximum(ca.lbcast, z)
    # Per-iteration busy/phase sums: the engine adds task durations in
    # submission order, so each shape gets its literal left-to-right sum.
    gpu_busy = np.empty(ca.nblocks)
    mpi_busy = np.empty(ca.nblocks)

    # State carried across iterations and segments: resource frees G/H/C/M
    # (gpu, hd, cpu, mpi), the live panel's LBCAST end P and the pending
    # RS2 communication R.  The last trailing update's end U, which the
    # classic chain waits for, is G: every shape ends its GPU stream with
    # that DGEMM.
    G = H = C = M = 0.0
    P = R = None
    preamble_end = 0.0
    if ca.preamble is not None:
        c = ca.preamble
        e1 = max(0.0, H) + max(0.0, c.d2h)
        H = e1
        e2 = max(e1, C) + max(0.0, c.fact)
        C = e2
        e3 = max(e2, H) + max(0.0, c.h2d)
        H = e3
        e4 = max(e3, M) + max(0.0, c.lbcast)
        M = e4
        P = e4
        preamble_end = e4

    ends: list[float] = []
    push = ends.append
    for shape, lo, hi, first in _resolve_shapes(ca.mode, ca.preamble is not None):
        seg = slice(lo, hi)

        def dur(*columns: np.ndarray) -> np.ndarray:
            """One task's clamped durations: the sum of its columns."""
            return np.maximum(reduce(add, [c[seg] for c in columns]), z)

        lb_s = lb_a[seg]
        chain = _lists(d2h_a[seg], fact_a[seg], h2d_a[seg], lb_s)
        # Every loop runs the chain as  e1 = max(x, H) + d2h;
        # e2 = max(e1, C) + fact;  e3 = e2 + h2d  -- h2d waits for FACT
        # (e2) and the hd engine, free since e1 <= e2.  ``a if a > b else
        # b`` is ``max(a, b)`` without the call.
        if shape == _CLASSIC:
            left_g_a, left_c_a, left_sc_a, left_t_a, left_u_a = map(dur, (
                ca.left_gather, ca.left_comm, ca.left_scatter,
                ca.left_dtrsm, ca.left_dgemm,
            ))
            gpu_busy[seg] = left_g_a + left_sc_a + left_t_a + left_u_a
            mpi_busy[seg] = lb_s + left_c_a
            for d2h, fact, h2d, lb, left_g, left_c, left_sc, left_t, left_u in zip(
                *chain, *_lists(left_g_a, left_c_a, left_sc_a, left_t_a, left_u_a)
            ):
                e1 = (G if G > H else H) + d2h
                C = (e1 if e1 > C else C) + fact
                H = C + h2d
                e4 = (H if H > M else M) + lb
                # gather: waits for LBCAST e4 >= e1 >= G, the gpu free.
                # comm: the mpi free is e4 <= gather.  scatter: comm >=
                # gather, the gpu free.
                M = e4 + left_g + left_c
                G = M + left_sc + left_t + left_u
                push(G)
        elif shape == _LOOKAHEAD:
            rs_g_a = dur(ca.la_gather, ca.left_gather)
            rs_c_a = dur(ca.la_comm, ca.left_comm)
            rs_sc_a = dur(ca.la_scatter, ca.left_scatter)
            la_t_a, la_u_a, left_t_a, left_u_a = map(dur, (
                ca.la_dtrsm, ca.la_dgemm, ca.left_dtrsm, ca.left_dgemm,
            ))
            gpu_busy[seg] = rs_g_a + rs_sc_a + la_t_a + la_u_a + left_t_a + left_u_a
            mpi_busy[seg] = rs_c_a + lb_s
            for d2h, fact, h2d, lb, rs_g, rs_c, rs_sc, la_t, la_u, left_t, left_u in zip(
                *chain,
                *_lists(rs_g_a, rs_c_a, rs_sc_a, la_t_a, la_u_a, left_t_a, left_u_a),
            ):
                a1 = (P if P > G else G) + rs_g
                a2 = (a1 if a1 > M else M) + rs_c
                # scatter: comm a2 >= gather a1, the gpu free.  la DTRSM:
                # scatter >= a1 >= P.
                a5 = a2 + rs_sc + la_t + la_u
                e1 = (a5 if a5 > H else H) + d2h
                C = (e1 if e1 > C else C) + fact
                H = C + h2d
                # LBCAST: the mpi free is a2 <= a5 <= e1 <= e3.  rest
                # DTRSM: the gpu free is a5 >= a1 >= P.
                M = H + lb
                G = a5 + left_t + left_u
                P = M
                push(M if M > G else G)
        elif shape == _SPLIT:
            rs_g_a = dur(ca.la_gather, ca.left_gather)
            la_c_a, la_sc_a, la_t_a, la_u_a = map(dur, (
                ca.la_comm, ca.la_scatter, ca.la_dtrsm, ca.la_dgemm,
            ))
            left_c_a, left_sc_a, left_t_a, left_u_a = map(dur, (
                ca.left_comm, ca.left_scatter, ca.left_dtrsm, ca.left_dgemm,
            ))
            right_g_a, right_c_a, right_sc_a, right_t_a, right_u_a = map(dur, (
                ca.right_gather, ca.right_comm, ca.right_scatter,
                ca.right_dtrsm, ca.right_dgemm,
            ))
            gpu_cols = (
                rs_g_a, right_sc_a, la_sc_a, la_t_a, la_u_a, right_t_a,
                right_u_a, right_g_a, left_sc_a, left_t_a, left_u_a,
            )
            mpi_cols = (la_c_a, lb_s, left_c_a, right_c_a)
            gpu_busy[seg] = reduce(add, gpu_cols)
            mpi_busy[seg] = reduce(add, mpi_cols)
            if first:
                # No RS2 pending: communicate the right section inline,
                # ahead of the first iteration's own tasks.
                gpu_busy[lo] = reduce(add, [c[0] for c in (right_g_a, *gpu_cols)])
                mpi_busy[lo] = reduce(add, [c[0] for c in (right_c_a, *mpi_cols)])
                G = (P if P > G else G) + float(right_g_a[0])
                R = M = (G if G > M else M) + float(right_c_a[0])
            for (
                d2h, fact, h2d, lb, rs_g, la_c, la_sc, la_t, la_u,
                left_c, left_sc, left_t, left_u,
                right_g, right_c, right_sc, right_t, right_u,
            ) in zip(
                *chain,
                *_lists(rs_g_a, la_c_a, la_sc_a, la_t_a, la_u_a),
                *_lists(left_c_a, left_sc_a, left_t_a, left_u_a),
                *_lists(right_g_a, right_c_a, right_sc_a, right_t_a, right_u_a),
            ):
                s1 = (P if P > G else G) + rs_g
                s2 = (R if R > s1 else s1) + right_sc
                m1 = (s1 if s1 > M else M) + la_c
                # la DTRSM: la scatter >= m1 >= s1 >= P.
                s5 = (m1 if m1 > s2 else s2) + la_sc + la_t + la_u
                e1 = (s5 if s5 > H else H) + d2h
                C = (e1 if e1 > C else C) + fact
                H = C + h2d
                # LBCAST: the mpi free is m1 <= s5 <= e1 <= e3.  RS1 comm:
                # the mpi free is e4 >= s5 >= s1, its gather.
                e4 = H + lb
                m2 = e4 + left_c
                # right DTRSM: the gpu free is s5 >= s2 >= s1 >= P.
                g2 = s5 + right_t + right_u
                g3 = (e4 if e4 > g2 else g2) + right_g
                # RS2 comm and left scatter both start at max(g3, m2);
                # left DTRSM: scatter >= g3 >= g2 >= s5 >= P.
                x = g3 if g3 > m2 else m2
                R = M = x + right_c
                G = x + left_sc + left_t + left_u
                P = e4
                # e4 <= m2 <= M: the latest end is M or G.
                push(M if M > G else G)
        else:  # _S2L: one iteration
            rs_sc_a = dur(ca.la_scatter, ca.left_scatter)
            la_t_a, la_u_a, left_t_a, left_u_a = map(dur, (
                ca.la_dtrsm, ca.la_dgemm, ca.left_dtrsm, ca.left_dgemm,
            ))
            gpu_busy[seg] = rs_sc_a + la_t_a + la_u_a + left_t_a + left_u_a
            mpi_busy[seg] = lb_s
            for d2h, fact, h2d, lb, rs_sc, la_t, la_u, left_t, left_u in zip(
                *chain, *_lists(rs_sc_a, la_t_a, la_u_a, left_t_a, left_u_a)
            ):
                a1 = (R if R > G else G) + rs_sc
                a3 = (a1 if a1 > P else P) + la_t + la_u
                e1 = (a3 if a3 > H else H) + d2h
                C = (e1 if e1 > C else C) + fact
                H = C + h2d
                M = (H if H > M else M) + lb
                # rest DTRSM: the gpu free is a3 >= P.
                G = a3 + left_t + left_u
                P = M
                push(M if M > G else G)

    return FastTimeline(
        makespan=max([preamble_end, *ends]),
        preamble_end=preamble_end,
        end=np.asarray(ends, dtype=np.float64),
        gpu_busy=gpu_busy,
        fact_busy=fact_a,
        mpi_busy=mpi_busy,
        transfer_busy=d2h_a + h2d_a,
    )
