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

A segment is resolved *regime by regime*.  A regime is a stretch of
iterations in which the winner of every ``max`` stays the same, so each
carried scalar follows one fixed chain of additions back to the scalars
carried into the iteration; real runs have a handful of regimes per
segment, each hundreds to thousands of iterations long.  Each shape's
recurrence is written once, as a loop body generic in its number type,
and runs on three:

* Python floats step the run exactly -- short segments, the few
  iterations around a regime change, and every iteration when
  speculation is off;
* a tracing scalar (:class:`_Trace`) steps one iteration exactly while
  recording every ``>`` outcome and, for each carried scalar, the
  scalar it grew from and the columns added to it in order;
* a lane (:class:`_Lane`) holds one quantity for a whole window of
  iterations, adds columns elementwise and, at each ``>``, marks the
  iterations whose comparison disagrees with the traced one before
  following the traced one.

From an exact state the trace of one iteration is extended over a
window: a scalar whose chain starts at itself is one
``np.add.accumulate`` over its columns interleaved in the loop's order,
and the others are derived from it (:func:`_guess`).  The loop body then
runs once on lanes holding those guesses (:func:`_verify`), and the
window is accepted up to the first iteration where a decision or a
carried value differs (``==``, no tolerance).  Why every accepted float
is the float loop's, bit for bit:

1. a guess repeats the loop's ``+``s on the same operands in the same
   order: ``np.add.accumulate`` adds sequentially, and a derived value is
   its root's value plus its columns, elementwise, in chain order;
2. a lane ``+`` is the loop's ``+``, one iteration per element, and each
   loop body makes the same comparisons in the same order whatever their
   outcomes;
3. induction: the lanes of the first iteration hold the exact state.  If
   the lanes of iteration ``j`` hold the exact state and every
   comparison at ``j`` agrees with the trace, iteration ``j`` followed
   the traced chains, so by 1 the guess the lanes of ``j + 1`` hold is
   the exact state too -- which the value check confirms independently.

A verified window is followed by a longer one on the same trace; a
failed one by a short float chunk and a fresh trace.

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
from ..grid.block_cyclic import MODE_CLASSIC, MODE_LOOKAHEAD, MODE_NAMES, MODE_SPLIT
from .timeline import IterCosts, SectionCosts


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


# The four shape loops.  Each runs its shape's recurrence over ``rows``
# (one tuple of column values per iteration) from the carried state and
# returns the state after the last row, pushing every iteration's end.
# The bodies are generic in their number type: Python floats step the
# run exactly, a :class:`_Trace` records one iteration's critical chain
# and a :class:`_Lane` checks a whole window of iterations at once.
# Every loop runs the chain as  e1 = max(x, H) + d2h;  e2 = max(e1, C) +
# fact;  e3 = e2 + h2d  -- h2d waits for FACT (e2) and the hd engine,
# free since e1 <= e2.  ``a if a > b else b`` is ``max(a, b)`` without
# the call.


def _classic(rows, G, H, C, M, P, R, push):
    for d2h, fact, h2d, lb, left_g, left_c, left_sc, left_t, left_u in rows:
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
    return G, H, C, M, P, R


def _lookahead(rows, G, H, C, M, P, R, push):
    for d2h, fact, h2d, lb, rs_g, rs_c, rs_sc, la_t, la_u, left_t, left_u in rows:
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
    return G, H, C, M, P, R


def _split(rows, G, H, C, M, P, R, push):
    for (
        d2h, fact, h2d, lb, rs_g, la_c, la_sc, la_t, la_u,
        left_c, left_sc, left_t, left_u,
        right_g, right_c, right_sc, right_t, right_u,
    ) in rows:
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
    return G, H, C, M, P, R


def _split_to_lookahead(rows, G, H, C, M, P, R, push):
    for d2h, fact, h2d, lb, rs_sc, la_t, la_u, left_t, left_u in rows:
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
    return G, H, C, M, P, R


_CARRIED = ("G", "H", "C", "M", "P", "R")

# Speculation policy, chosen by measurement: ranges shorter than
# _MIN_RANGE iterations stay on the float path; the first window checks
# _FIRST_WINDOW iterations and each fully verified window is followed by
# one _GROWTH times longer; after a failed window _SCALAR_CHUNK
# iterations are stepped on floats before the next trace.
_MIN_RANGE = 1024
_FIRST_WINDOW = 256
_GROWTH = 8
_SCALAR_CHUNK = 8


class _Trace:
    """A value, the carried variable it grew from, and the columns added
    to it since, in order.  Comparisons are appended to ``log``."""

    __slots__ = ("value", "root", "chain", "log")

    def __init__(self, value: float, root: str, chain: tuple, log: list):
        self.value, self.root, self.chain, self.log = value, root, chain, log

    def __gt__(self, other: _Trace) -> bool:
        won = self.value > other.value
        self.log.append(won)
        return won

    def __add__(self, column: tuple[str, float]) -> _Trace:
        name, value = column
        return _Trace(self.value + value, self.root, self.chain + (name,),
                      self.log)


class _Lane:
    """A window of values of one quantity, one per iteration.

    ``>`` takes the traced decision (``check`` records the iterations
    whose own comparison disagrees) so the loop body follows the traced
    chain, and ``+`` adds a column slice elementwise.
    """

    __slots__ = ("values", "check")

    def __init__(self, values: np.ndarray, check: _Check):
        self.values, self.check = values, check

    def __gt__(self, other: _Lane) -> bool:
        return self.check(self.values, other.values)

    def __add__(self, column: np.ndarray) -> _Lane:
        return _Lane(self.values + column, self.check)


class _Check:
    """Replays the traced decisions in order, keeping the lanes' own.

    Row ``i`` of ``table`` is the lanes' ``i``-th comparison; the last
    rows, one per carried value, are where the lanes' state differs from
    the guess (filled by :func:`_verify`).  ``want`` is what each row
    must read for an iteration to pass.
    """

    def __init__(self, decisions: list[bool], width: int):
        self.want = decisions + [False] * len(_CARRIED)
        self.table = np.empty((len(self.want), width), dtype=bool)
        self.n = 0

    def __call__(self, a: np.ndarray, b: np.ndarray) -> bool:
        np.greater(a, b, out=self.table[self.n])
        self.n += 1
        return self.want[self.n - 1]


def _step(loop, cols: list[np.ndarray], a: int, b: int, state: tuple,
          end: np.ndarray) -> tuple:
    """Run ``loop`` on floats over iterations ``[a, b)``."""
    ends: list[float] = []
    # Python lists beat numpy scalar indexing for per-row reads.
    state = loop(zip(*[c[a:b].tolist() for c in cols]), *state, ends.append)
    end[a:b] = ends
    return state


def _trace(loop, cols: dict[str, np.ndarray], k: int, state: tuple,
           end: np.ndarray) -> tuple[tuple, tuple, list[bool]]:
    """Step iteration ``k`` exactly, recording its critical chain.

    Returns the state after ``k``, each carried value's :class:`_Trace`
    (``None`` for an unset one) and the decisions of the loop's ``>``s.
    """
    log: list[bool] = []
    row = tuple((name, float(c[k])) for name, c in cols.items())
    ends: list[_Trace] = []
    traced = loop(
        (row,),
        *(None if v is None else _Trace(v, name, (), log)
          for name, v in zip(_CARRIED, state)),
        ends.append,
    )
    end[k] = ends[0].value
    return tuple(None if t is None else t.value for t in traced), traced, log


def _guess(traced: tuple, window: dict[str, np.ndarray], w: int,
           state: tuple) -> tuple[list, list] | None:
    """Every carried value before and after each of the ``w`` iterations
    whose columns are ``window``, assuming the traced chains hold
    throughout; ``None`` if the chains cannot be unrolled.

    A value that grows from itself is one running sum of its columns,
    interleaved in the loop's order: ``np.add.accumulate`` adds
    sequentially, so it repeats the loop's ``+``s, and its partial sums
    serve every chain that shares a prefix with it.  Any other value is
    its root's value plus its own columns.
    """
    start = dict(zip(_CARRIED, state))
    before: dict[str, np.ndarray] = {}
    after: dict[str, np.ndarray] = {}
    sums: dict[tuple, np.ndarray] = {}  # (root, chain prefix) -> values
    pending = {}
    for name, t in zip(_CARRIED, traced):
        if t is None:
            continue
        if t.root != name:
            pending[name] = t
            continue
        width = len(t.chain)
        if not width:
            before[name] = after[name] = np.full(w, start[name])
            continue
        flat = np.empty(w * width + 1)
        flat[0] = start[name]
        grid = flat[1:].reshape(w, width)
        for i, col in enumerate(t.chain):
            grid[:, i] = window[col]
        run = np.add.accumulate(flat)
        before[name] = run[:-1:width]
        partials = run[1:].reshape(w, width).T
        for i in range(width):
            sums[name, t.chain[:i + 1]] = partials[i]
        after[name] = partials[-1]
    while pending:
        ready = [name for name, t in pending.items() if t.root in before]
        if not ready:
            return None  # a cycle through other variables
        for name in ready:
            t = pending.pop(name)
            done = len(t.chain)
            while done and (t.root, t.chain[:done]) not in sums:
                done -= 1
            x = sums[t.root, t.chain[:done]] if done else before[t.root]
            for i in range(done, len(t.chain)):
                x = sums[t.root, t.chain[:i + 1]] = x + window[t.chain[i]]
            after[name] = x
            before[name] = np.concatenate(([start[name]], x[:-1]))
    return ([before.get(name) for name in _CARRIED],
            [after.get(name) for name in _CARRIED])


def _verify(loop, window: dict[str, np.ndarray], w: int,
            guess: tuple[list, list], decisions: list[bool]
            ) -> tuple[int, list, np.ndarray]:
    """Run ``loop`` once on lanes over the ``w`` iterations of ``window``.

    Returns how many leading iterations took the traced decisions and
    produced the guessed state, the lanes' state after each iteration
    and the ends.
    """
    before, after = guess
    check = _Check(decisions, w)
    ends: list[_Lane] = []
    lanes = loop(
        (tuple(window.values()),),
        *(None if g is None else _Lane(g, check) for g in before),
        ends.append,
    )
    assert check.n == len(decisions), "the loop's comparisons changed"
    table = check.table
    for i, (lane, want) in enumerate(zip(lanes, after), check.n):
        if lane is None:
            table[i] = False
        else:
            np.not_equal(lane.values, want, out=table[i])
    bad = (table != np.array(check.want)[:, None]).any(axis=0)
    good = int(bad.argmax()) if bad.any() else w
    return good, [None if lane is None else lane.values for lane in lanes], \
        ends[0].values


def _resolve(loop, cols: dict[str, np.ndarray], state: tuple,
             end: np.ndarray) -> tuple:
    """Run ``loop`` over every row of ``cols`` regime by regime.

    A trace of one iteration names the chain each carried value follows;
    :func:`_guess` extends those chains over a window, :func:`_verify`
    proves the leading iterations that follow them, and the rest is
    stepped on floats.  Every float equals the plain loop's.
    """
    arrays = list(cols.values())
    n = len(arrays[0])
    k = 0
    chunk = _SCALAR_CHUNK
    while n >= _MIN_RANGE and n - k >= chunk + _FIRST_WINDOW:
        state = _step(loop, arrays, k, k + chunk, state, end)
        k += chunk
        state, traced, decisions = _trace(loop, cols, k, state, end)
        k += 1
        w = _FIRST_WINDOW
        verified = 0
        while k < n:
            w = min(w, n - k)
            window = {name: c[k:k + w] for name, c in cols.items()}
            guess = _guess(traced, window, w, state)
            if guess is None:
                break
            good, states, ends = _verify(loop, window, w, guess, decisions)
            if good:
                end[k:k + good] = ends[:good]
                state = tuple(None if s is None else float(s[good - 1])
                              for s in states)
                k += good
                verified += good
            if good < w:
                break
            w *= _GROWTH
        # A regime shorter than its lead-in doubles the next lead-in, so a
        # run whose winners keep changing pays for O(log n) traces only.
        chunk = _SCALAR_CHUNK if verified >= chunk else 2 * chunk
    return _step(loop, arrays, k, n, state, end)


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

    end = np.empty(ca.nblocks)
    for shape, lo, hi, first in _resolve_shapes(ca.mode, ca.preamble is not None):
        seg = slice(lo, hi)

        def dur(*columns: np.ndarray) -> np.ndarray:
            """One task's clamped durations: the sum of its columns."""
            return np.maximum(reduce(add, [c[seg] for c in columns]), z)

        # Each shape's columns, in its loop's unpacking order.
        cols = {"d2h": d2h_a[seg], "fact": fact_a[seg], "h2d": h2d_a[seg],
                "lb": lb_a[seg]}

        def total(*names: str) -> np.ndarray:
            return reduce(add, [cols[name] for name in names])

        if shape == _CLASSIC:
            loop = _classic
            cols.update(
                left_g=dur(ca.left_gather), left_c=dur(ca.left_comm),
                left_sc=dur(ca.left_scatter), left_t=dur(ca.left_dtrsm),
                left_u=dur(ca.left_dgemm),
            )
            gpu_busy[seg] = total("left_g", "left_sc", "left_t", "left_u")
            mpi_busy[seg] = total("lb", "left_c")
        elif shape == _LOOKAHEAD:
            loop = _lookahead
            cols.update(
                rs_g=dur(ca.la_gather, ca.left_gather),
                rs_c=dur(ca.la_comm, ca.left_comm),
                rs_sc=dur(ca.la_scatter, ca.left_scatter),
                la_t=dur(ca.la_dtrsm), la_u=dur(ca.la_dgemm),
                left_t=dur(ca.left_dtrsm), left_u=dur(ca.left_dgemm),
            )
            gpu_busy[seg] = total("rs_g", "rs_sc", "la_t", "la_u", "left_t", "left_u")
            mpi_busy[seg] = total("rs_c", "lb")
        elif shape == _SPLIT:
            loop = _split
            cols.update(
                rs_g=dur(ca.la_gather, ca.left_gather),
                la_c=dur(ca.la_comm), la_sc=dur(ca.la_scatter),
                la_t=dur(ca.la_dtrsm), la_u=dur(ca.la_dgemm),
                left_c=dur(ca.left_comm), left_sc=dur(ca.left_scatter),
                left_t=dur(ca.left_dtrsm), left_u=dur(ca.left_dgemm),
                right_g=dur(ca.right_gather), right_c=dur(ca.right_comm),
                right_sc=dur(ca.right_scatter), right_t=dur(ca.right_dtrsm),
                right_u=dur(ca.right_dgemm),
            )
            gpu = ("rs_g", "right_sc", "la_sc", "la_t", "la_u", "right_t",
                   "right_u", "right_g", "left_sc", "left_t", "left_u")
            mpi = ("la_c", "lb", "left_c", "right_c")
            gpu_busy[seg] = total(*gpu)
            mpi_busy[seg] = total(*mpi)
            if first:
                # No RS2 pending: communicate the right section inline,
                # ahead of the first iteration's own tasks.
                gpu_busy[lo] = reduce(add, [cols[n][0] for n in ("right_g", *gpu)])
                mpi_busy[lo] = reduce(add, [cols[n][0] for n in ("right_c", *mpi)])
                G = (P if P > G else G) + float(cols["right_g"][0])
                R = M = (G if G > M else M) + float(cols["right_c"][0])
        else:  # _S2L: one iteration
            loop = _split_to_lookahead
            cols.update(
                rs_sc=dur(ca.la_scatter, ca.left_scatter),
                la_t=dur(ca.la_dtrsm), la_u=dur(ca.la_dgemm),
                left_t=dur(ca.left_dtrsm), left_u=dur(ca.left_dgemm),
            )
            gpu_busy[seg] = total("rs_sc", "la_t", "la_u", "left_t", "left_u")
            mpi_busy[seg] = cols["lb"]
        G, H, C, M, P, R = _resolve(loop, cols, (G, H, C, M, P, R), end[seg])

    return FastTimeline(
        # Every end is a sum of non-negative floats from +0.0, so the
        # largest has one bit pattern however it is found.
        makespan=max(preamble_end, float(end.max())) if len(end) else preamble_end,
        preamble_end=preamble_end,
        end=end,
        gpu_busy=gpu_busy,
        fact_busy=fact_a,
        mpi_busy=mpi_busy,
        transfer_busy=d2h_a + h2d_a,
    )
