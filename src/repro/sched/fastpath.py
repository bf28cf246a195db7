"""Closed-form timeline evaluation of the fixed iteration DAG shapes.

:mod:`repro.sched.timeline` emits one of four task sub-graphs per
iteration (classic / lookahead / split / split-to-lookahead fallback) and
the in-order-resource engine resolves them task by task.  Because the
shapes are fixed, every start/end time the engine would compute is a
closed-form max-plus recurrence over a handful of scalars carried across
iterations -- the four resource frees (gpu / hd / cpu / mpi), the live
panel's LBCAST end, the pending right-section communication, and the
previous trailing update.  :func:`evaluate` walks those recurrences
directly over cost arrays, allocating no :class:`~repro.sched.engine.Task`
objects, and reproduces the engine's timings **bit for bit**: every
``max``/``+`` is performed on the same float values in the same order the
engine would, including the per-task ``max(0.0, duration)`` clamp the
builder applies.

What the fast path does *not* produce: the per-task trace (there are no
tasks) and per-message simmpi events.  Use the full engine
(``fidelity="full"``) when those are needed.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass

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
    modes: list[int], has_preamble: bool
) -> tuple[list[int], list[bool]]:
    """Replay ``build_run``'s mode dispatch without building tasks.

    Returns the concrete shape per iteration plus a flag marking split
    iterations that must communicate their right section inline (no
    pending RS2 from a previous split iteration).
    """
    shapes: list[int] = []
    first_split: list[bool] = []
    was_split = False
    pending = False
    panel_live = has_preamble
    for m in modes:
        first = False
        if m == MODE_CLASSIC:
            shape = _CLASSIC
        elif m == MODE_LOOKAHEAD:
            if was_split and pending:
                shape = _S2L
                pending = False
            else:
                if not panel_live:
                    raise ScheduleError("lookahead schedule needs a preamble")
                shape = _LOOKAHEAD
            was_split = False
            panel_live = True
        elif m == MODE_SPLIT:
            if not panel_live:
                raise ScheduleError("split schedule needs a preamble")
            shape = _SPLIT
            first = not pending
            pending = True
            was_split = True
            panel_live = True
        else:
            raise ScheduleError(f"unknown iteration mode {m!r}")
        shapes.append(shape)
        first_split.append(first)
    return shapes, first_split


def evaluate(ca: CostArrays) -> FastTimeline:
    """Resolve the run's timeline with max-plus recurrences over arrays.

    Bit-identical to ``simulate(build_run(ca.to_iter_costs()))`` in every
    reported quantity; see the module docstring for the argument.
    """
    nblocks = ca.nblocks
    shapes, first_split = _resolve_shapes(ca.mode.tolist(), ca.preamble is not None)

    # Task durations exactly as the builder creates them: merged RS tasks
    # sum the la + left components first, and every duration is clamped
    # at zero (Task construction applies max(0.0, dur)).
    z = 0.0
    d2h_a = np.maximum(ca.d2h, z)
    fact_a = np.maximum(ca.fact, z)
    h2d_a = np.maximum(ca.h2d, z)
    lb_a = np.maximum(ca.lbcast, z)
    la_c = np.maximum(ca.la_comm, z)
    la_sc = np.maximum(ca.la_scatter, z)
    la_t = np.maximum(ca.la_dtrsm, z)
    la_u = np.maximum(ca.la_dgemm, z)
    left_g = np.maximum(ca.left_gather, z)
    left_c = np.maximum(ca.left_comm, z)
    left_sc = np.maximum(ca.left_scatter, z)
    left_t = np.maximum(ca.left_dtrsm, z)
    left_u = np.maximum(ca.left_dgemm, z)
    right_g = np.maximum(ca.right_gather, z)
    right_c = np.maximum(ca.right_comm, z)
    right_sc = np.maximum(ca.right_scatter, z)
    right_t = np.maximum(ca.right_dtrsm, z)
    right_u = np.maximum(ca.right_dgemm, z)
    rs_g = np.maximum(ca.la_gather + ca.left_gather, z)
    rs_c = np.maximum(ca.la_comm + ca.left_comm, z)
    rs_sc = np.maximum(ca.la_scatter + ca.left_scatter, z)

    # ------------------------------------------------------------------
    # Per-iteration busy/phase sums: the engine adds task durations in
    # submission order, so each shape gets its literal left-to-right sum.
    # ------------------------------------------------------------------
    shape_a = np.asarray(shapes, dtype=np.int8)
    first_a = np.asarray(first_split, dtype=bool)
    is_classic = shape_a == _CLASSIC
    is_la = shape_a == _LOOKAHEAD
    is_split = shape_a == _SPLIT
    is_split_first = is_split & first_a
    is_split_rest = is_split & ~first_a
    is_s2l = shape_a == _S2L

    transfer_busy = d2h_a + h2d_a
    fact_busy = fact_a
    gpu_busy = np.select(
        [is_classic, is_la, is_split_rest, is_split_first, is_s2l],
        [
            left_g + left_sc + left_t + left_u,
            rs_g + rs_sc + la_t + la_u + left_t + left_u,
            rs_g + right_sc + la_sc + la_t + la_u + right_t + right_u
            + right_g + left_sc + left_t + left_u,
            right_g + rs_g + right_sc + la_sc + la_t + la_u + right_t
            + right_u + right_g + left_sc + left_t + left_u,
            rs_sc + la_t + la_u + left_t + left_u,
        ],
    )
    mpi_busy = np.select(
        [is_classic, is_la, is_split_rest, is_split_first, is_s2l],
        [
            lb_a + left_c,
            rs_c + lb_a,
            la_c + lb_a + left_c + right_c,
            right_c + la_c + lb_a + left_c + right_c,
            lb_a,
        ],
    )

    # ------------------------------------------------------------------
    # The timeline recurrence.  State carried across iterations: resource
    # frees G/H/C/M (gpu, hd, cpu, mpi), the live panel's LBCAST end P,
    # the pending RS2 communication R, and the last trailing update U.
    # Python lists beat numpy scalar indexing by ~5x in this loop.
    # ------------------------------------------------------------------
    d2h_l = d2h_a.tolist()
    fact_l = fact_a.tolist()
    h2d_l = h2d_a.tolist()
    lb_l = lb_a.tolist()
    la_c_l = la_c.tolist()
    la_sc_l = la_sc.tolist()
    la_t_l = la_t.tolist()
    la_u_l = la_u.tolist()
    left_g_l = left_g.tolist()
    left_c_l = left_c.tolist()
    left_sc_l = left_sc.tolist()
    left_t_l = left_t.tolist()
    left_u_l = left_u.tolist()
    right_g_l = right_g.tolist()
    right_c_l = right_c.tolist()
    right_sc_l = right_sc.tolist()
    right_t_l = right_t.tolist()
    right_u_l = right_u.tolist()
    rs_g_l = rs_g.tolist()
    rs_c_l = rs_c.tolist()
    rs_sc_l = rs_sc.tolist()

    G = H = C = M = 0.0
    P = R = U = None
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
    makespan = preamble_end
    for i in range(nblocks):
        shape = shapes[i]
        if shape == _CLASSIC:
            e1 = max(U if U is not None else 0.0, H) + d2h_l[i]
            H = e1
            e2 = max(e1, C) + fact_l[i]
            C = e2
            e3 = max(e2, H) + h2d_l[i]
            H = e3
            e4 = max(e3, M) + lb_l[i]
            M = e4
            e5 = max(e4, G) + left_g_l[i]
            e6 = max(e5, M) + left_c_l[i]
            M = e6
            e7 = max(e6, e5) + left_sc_l[i]
            e8 = e7 + left_t_l[i]
            e9 = e8 + left_u_l[i]
            G = e9
            U = e9
            end = e9
        elif shape == _LOOKAHEAD:
            a1 = max(P, G) + rs_g_l[i]
            a2 = max(a1, M) + rs_c_l[i]
            M = a2
            a3 = max(a2, a1) + rs_sc_l[i]
            a4 = max(max(a3, P), a3) + la_t_l[i]
            a5 = a4 + la_u_l[i]
            G = a5
            e1 = max(a5, H) + d2h_l[i]
            H = e1
            e2 = max(e1, C) + fact_l[i]
            C = e2
            e3 = max(e2, H) + h2d_l[i]
            H = e3
            e4 = max(e3, M) + lb_l[i]
            M = e4
            b1 = max(P, G) + left_t_l[i]
            b2 = b1 + left_u_l[i]
            G = b2
            P = e4
            U = b2
            end = e4 if e4 > b2 else b2
        elif shape == _SPLIT:
            if R is None:
                f1 = max(P, G) + right_g_l[i]
                G = f1
                R = max(f1, M) + right_c_l[i]
                M = R
            s1 = max(P, G) + rs_g_l[i]
            s2 = max(R, s1) + right_sc_l[i]
            m1 = max(s1, M) + la_c_l[i]
            s3 = max(m1, s2) + la_sc_l[i]
            s4 = max(max(s3, P), s3) + la_t_l[i]
            s5 = s4 + la_u_l[i]
            G = s5
            e1 = max(s5, H) + d2h_l[i]
            H = e1
            e2 = max(e1, C) + fact_l[i]
            C = e2
            e3 = max(e2, H) + h2d_l[i]
            H = e3
            e4 = max(e3, m1) + lb_l[i]
            m2 = max(s1, e4) + left_c_l[i]
            g1 = max(max(s2, P), G) + right_t_l[i]
            g2 = g1 + right_u_l[i]
            g3 = max(max(e4, g2), g2) + right_g_l[i]
            m3 = max(g3, m2) + right_c_l[i]
            M = m3
            g4 = max(m2, g3) + left_sc_l[i]
            g5 = max(max(g4, P), g4) + left_t_l[i]
            g6 = g5 + left_u_l[i]
            G = g6
            P = e4
            R = m3
            U = g6
            end = max(e4, m3)
            if g6 > end:
                end = g6
        else:  # _S2L
            a1 = max(R, G) + rs_sc_l[i]
            R = None
            a2 = max(max(a1, P), a1) + la_t_l[i]
            a3 = a2 + la_u_l[i]
            G = a3
            e1 = max(a3, H) + d2h_l[i]
            H = e1
            e2 = max(e1, C) + fact_l[i]
            C = e2
            e3 = max(e2, H) + h2d_l[i]
            H = e3
            e4 = max(e3, M) + lb_l[i]
            M = e4
            b1 = max(P, G) + left_t_l[i]
            b2 = b1 + left_u_l[i]
            G = b2
            P = e4
            U = b2
            end = e4 if e4 > b2 else b2
        ends.append(end)
        if end > makespan:
            makespan = end

    return FastTimeline(
        makespan=makespan,
        preamble_end=preamble_end,
        end=np.asarray(ends, dtype=np.float64),
        gpu_busy=np.asarray(gpu_busy, dtype=np.float64),
        fact_busy=np.asarray(fact_busy, dtype=np.float64),
        mpi_busy=np.asarray(mpi_busy, dtype=np.float64),
        transfer_busy=np.asarray(transfer_busy, dtype=np.float64),
    )
