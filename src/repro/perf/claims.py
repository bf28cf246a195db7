"""The paper's claims, each written once with its one bound.

A :class:`Claim` pairs what the paper states with a ``measure`` of the
models and a ``holds`` predicate over the measured value; ``pinned``
fixes the current float of a headline number (``rel=1e-9``), so a model
change that moves it fails by name.  Every ``measure`` reads one
:class:`Bundle`: the paper's runs and sweeps, priced directly on the
models (no service) the first time a claim asks for them.

``tests/test_claims.py`` checks every claim in tier-1; the figure
benchmarks check the same claims on the data they write to
``benchmarks/out/`` (``bench_fig8_scaling.py`` on the points it gathers
over HTTP, by setting them as its bundle's ``fig8``).  Nothing under
``repro.perf`` imports this module, so pricing never pays for it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from ..binding import compute_bindings, crusher_topology
from ..config import Schedule
from ..machine.frontier import (
    FRONTIER_NODES,
    FRONTIER_TOP500_TFLOPS,
    crusher_cluster,
    frontier_cluster,
)
from ..machine.gemm_model import dgemm_tflops
from ..machine.power_model import energy_of_run
from ..machine.spec import LinkSpec
from .factsim import fact_sweep
from .generations import generational_sweep
from .hostresident import (
    crossover_sweep,
    required_nb_for_device,
    simulate_host_resident,
)
from .hplsim import simulate_run, simulate_timeline
from .ledger import PerfConfig, time_sharing_threads
from .scaling import (
    choose_grid,
    node_local_grid,
    scaled_n,
    weak_scaling,
    weak_scaling_efficiency,
)

#: A pinned float may move by this relative amount (summation noise only).
PIN_REL = 1e-9

#: The paper's single-node run: N=256 000, NB=512, 4x2, 50-50 split.
FIG7 = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
NODE = crusher_cluster(1)


@dataclass(frozen=True)
class Claim:
    """One statement of the paper, measured on the models."""

    id: str
    section: str
    paper: str
    measure: Callable[["Bundle"], Any]
    holds: Callable[[Any], bool]
    pinned: float | None = None

    def failure(self, value) -> str | None:
        """Why ``value`` breaks this claim; ``None`` when it holds."""
        if not self.holds(value):
            return f"{self.id}: measured {value!r}; the paper: {self.paper}"
        if self.pinned is not None and abs(value - self.pinned) > PIN_REL * abs(
            self.pinned
        ):
            return f"{self.id}: measured {value!r}, pinned {self.pinned!r}"
        return None


def _run(**change):
    """The Fig. 7 run with ``change`` applied to its configuration."""
    return simulate_run(dataclasses.replace(FIG7, **change), NODE)


class Bundle:
    """The runs and sweeps the claims measure, each priced on first use.

    Any attribute may be set before it is read, to check the claims on
    data gathered elsewhere (the Fig. 8 benchmark's points).
    """

    @cached_property
    def fig7(self):
        return _run()

    @cached_property
    def dgemm_per_gcd(self) -> float:
        """Trailing-update DGEMM rate of one GCD at NB=512 (TFLOPS)."""
        return dgemm_tflops(NODE.node.gpu, 60_000, 120_000, 512)

    @cached_property
    def split_sweep(self) -> dict:
        """Split fraction -> the Fig. 7 run's report at that fraction."""
        fractions = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)
        return {f: _run(split_fraction=f) for f in fractions}

    @cached_property
    def nb_sweep(self) -> dict:
        """NB -> single-node score at the largest N <= 256 000 NB divides."""
        return {nb: _run(n=FIG7.n // nb * nb, nb=nb).score_tflops
                for nb in (128, 512, 2048)}

    @cached_property
    def schedules(self) -> dict:
        """(N, schedule) -> single-node score, at a small and the full N."""
        return {(n, s): _run(n=n, schedule=s).score_tflops
                for n in (65_536, FIG7.n) for s in Schedule}

    @cached_property
    def timelines(self) -> dict:
        """Schedule -> the Fig. 7 run's per-task timeline (Figs. 3 and 6)."""
        return {
            sched: simulate_timeline(dataclasses.replace(FIG7, schedule=sched), NODE)
            for sched in (Schedule.LOOKAHEAD, Schedule.SPLIT_UPDATE)
        }

    @cached_property
    def fig8(self) -> list:
        return weak_scaling()

    @cached_property
    def fact(self) -> list:
        return fact_sweep()

    @cached_property
    def local_grids(self) -> dict:
        """Node-local grid -> (FACT threads T, single-node score)."""
        return {(pl, ql): (time_sharing_threads(64, pl, ql),
                           _run(p=pl, q=ql, pl=pl, ql=ql).score_tflops)
                for pl, ql in ((8, 1), (4, 2), (2, 4), (1, 8))}

    @cached_property
    def fact_threads(self) -> dict:
        """FACT threads per rank -> single-node score (15: time-shared)."""
        return {t: _run(fact_threads=t).score_tflops for t in (15, 8, 1)}

    @cached_property
    def generations(self) -> list:
        return generational_sweep()

    @cached_property
    def generations_131k(self) -> list:
        return generational_sweep([1.0, 2.0, 4.0], dataclasses.replace(FIG7, n=131_072))

    @cached_property
    def energy(self):
        return energy_of_run(self.fig7, NODE.node)

    @cached_property
    def host_resident(self):
        return simulate_host_resident(FIG7, NODE)

    @cached_property
    def crossover(self) -> list:
        """Host-resident design over PCIe gen3, device 1/64x ... 1x MI250X."""
        return crossover_sweep(
            NODE, pcie=LinkSpec(12.0, 5e-6),
            scales=[1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0],
        )

    @cached_property
    def frontier(self) -> tuple:
        """The full machine's (report, energy) on the Crusher node model."""
        p, q = choose_grid(FRONTIER_NODES * 8)
        pl, ql = node_local_grid(p, q)
        cfg = PerfConfig(
            n=scaled_n(FRONTIER_NODES, 256_000, 512), nb=512, p=p, q=q, pl=pl, ql=ql
        )
        cluster = frontier_cluster()
        report = simulate_run(cfg, cluster)
        return report, energy_of_run(report, cluster.node, node_count=FRONTIER_NODES)


def _iteration(timeline, k: int = 5):
    """(span, GPU busy, tasks by name) of an early steady-state iteration."""
    start, end = timeline.span_of_tag(k)
    tasks = {t.name.rsplit(".", 1)[0]: t for t in timeline.tasks_tagged(k)}
    return end - start, timeline.busy_in_tag(k, "gpu"), tasks


def _fig3(b):
    tl = b.timelines[Schedule.LOOKAHEAD]
    span, gpu, tasks = _iteration(tl)
    return span, gpu, tl.phase_in_tag(5, "FACT"), tasks["rs.comm"].duration


def _two_by_four(b) -> tuple:
    """(Cores a naive 2x4 partition idles in FACT: two factoring ranks on
    one CCD each and six waiting roots; the time-shared FACT threads T.)"""
    topo = crusher_topology()
    return (topo.cores - 2 * topo.cores_per_ccd - 6,
            compute_bindings(2, 4, topo)[0].nthreads)


def _fig5(b, m: int | None = None) -> dict:
    """Threads -> Fig. 5 GFLOPS at panel height ``m`` (default: the largest)."""
    return {c.threads: c.gflops[c.m_values.index(m) if m else -1] for c in b.fact}


def _l3_resident_rise(b) -> tuple:
    """Least step of any Fig. 5 curve while its panel fits in L3, and the
    least overall rise (last M's GFLOPS minus the first's)."""
    l3_rows = int(NODE.node.cpu.l3_mb * 1e6 / (8 * 512))
    steps = []
    for c in b.fact:
        resident = [g for m, g in zip(c.m_values, c.gflops) if m <= l3_rows]
        steps += [hi - lo for lo, hi in zip(resident, resident[1:])]
    return min(steps), min(c.gflops[-1] - c.gflops[0] for c in b.fact)


def _stacked(b, lo: int, hi: int) -> list:
    """(iteration, FACT + MPI + transfer) for Fig. 7's iterations lo:hi."""
    return [(it, it.fact + it.mpi + it.transfer) for it in b.fig7.iterations[lo:hi]]


def _gpu_per_iteration(its) -> float:
    return sum(it.gpu_active for it in its) / len(its)


def _time_ratio(b, n: int) -> float:
    """Fig. 7's first ``n`` iterations' seconds over its last ``n``'s."""
    t = b.fig7.time.tolist()
    return sum(t[:n]) / sum(t[-n:])


def _fig6_windows(b) -> tuple:
    """((RS1 end, UPDATE2 end), (RS2 end, UPDATE1 end)) of the split run."""
    tasks = _iteration(b.timelines[Schedule.SPLIT_UPDATE])[2]
    pairs = (("rs1.comm", "dgemm.right"), ("rs2.comm", "dgemm.left"))
    return tuple((tasks[rs].end, tasks[up].end) for rs, up in pairs)


def _fig8(b, value) -> dict:
    """Node count -> ``value(point)`` over the Fig. 8 points."""
    return {pt.nnodes: value(pt) for pt in b.fig8}


def _efficiency(b) -> dict:
    """Node count -> weak-scaling efficiency of the Fig. 8 points."""
    return {pt.nnodes: e for pt, e in zip(b.fig8, weak_scaling_efficiency(b.fig8))}


def _increasing(seq, strict: bool = True) -> bool:
    return all(b > a if strict else b >= a for a, b in zip(seq, seq[1:]))


CLAIMS: tuple[Claim, ...] = (
    # §I and related work
    Claim("sec1.frontier_score", "§I",
          "Frontier's 1.102 EF; the model (no dragonfly congestion) overshoots"
          " by at most 30 %",
          lambda b: b.frontier[0].score_tflops / FRONTIER_TOP500_TFLOPS,
          lambda v: 1.0 <= v <= 1.30),
    Claim("sec1.frontier_power", "§I", "~21 MW for the full machine (W)",
          lambda b: b.frontier[1].mean_total_w, lambda v: 18e6 <= v <= 28e6),
    Claim("sec1.frontier_gflops_per_w", "§I", "~52 GFLOPS/W",
          lambda b: b.frontier[1].gflops_per_w, lambda v: 40 <= v <= 65),
    Claim("sec1.resident_vs_host", "§I",
          "host-resident pipelining is impractical on MI250X: the HBM-resident"
          " score over the host-resident one",
          lambda b: b.fig7.score_tflops / b.host_resident.score_tflops,
          lambda v: v > 10),
    Claim("sec1.nb_to_feed_device", "§I",
          "hiding host transfers needs 'unreasonably large blocking parameters'",
          lambda b: required_nb_for_device(
              NODE.node.h2d, b.host_resident.device_tflops),
          lambda v: v > 4_000),
    Claim("sec1.crossover", "§I",
          "pipelining kept up with ~1-TFLOPS GPUs and starves an MI250X:"
          " (slowest device compute-bound, fastest, its utilization)",
          lambda b: (b.crossover[0][1].compute_bound,
                     b.crossover[-1][1].compute_bound,
                     b.crossover[-1][1].device_utilization),
          lambda v: v[0] and not v[1] and v[2] < 0.1),
    # §III.A, Fig. 5
    Claim("fig5.threading_gain", "§III.A Fig. 5",
          "multi-threading improves FACT considerably: T=64 over T=1 at the"
          " largest M",
          lambda b: _fig5(b)[64] / _fig5(b)[1], lambda v: v > 5),
    Claim("fig5.small_m_gain", "§III.A Fig. 5",
          "many cores help even at small sizes: T=16 over T=2 at M=16*NB",
          lambda b: _fig5(b, 16 * 512)[16] / _fig5(b, 16 * 512)[2],
          lambda v: v > 2),
    Claim("fig5.thread_doubling", "§III.A Fig. 5",
          "every doubling of threads helps at the largest M (GFLOPS by T)",
          lambda b: _fig5(b), lambda v: _increasing(list(v.values()))),
    Claim("fig5.rises_with_m", "§III.A Fig. 5",
          "rates rise with M while the panel stays in L3: (least L3-resident"
          " step, least overall rise) in GFLOPS",
          _l3_resident_rise, lambda v: v[0] >= 0 and v[1] > 0),
    # §III.B
    Claim("sec3b.two_by_four", "§III.B",
          "2x4 grid: a naive partition idles 42 cores; time-sharing gives"
          " T=29, so 2*29 FACT cores + 6 waiting roots use all 64",
          _two_by_four, lambda v: v == (42, 29)),
    Claim("sec3b.local_grid", "§III.B",
          "the paper's single-node 4x2 beats the no-sharing 8x1 (TFLOPS)",
          lambda b: (b.local_grids[4, 2][1], b.local_grids[8, 1][1]),
          lambda v: v[0] > v[1]),
    Claim("sec3b.time_sharing_payoff", "§III.B",
          "time-sharing (T=15) beats a plain partition (T=8) beats T=1",
          lambda b: b.fact_threads, lambda v: v[15] > v[8] > v[1]),
    # §III.C, Figs. 3 and 6
    Claim("fig3.fact_hidden", "§III Fig. 3",
          "look-ahead hides FACT behind the trailing update: (iteration span,"
          " GPU busy + FACT)",
          lambda b: (_fig3(b)[0], _fig3(b)[1] + _fig3(b)[2]),
          lambda v: v[0] < v[1]),
    Claim("fig3.rs_exposed", "§III Fig. 3",
          "look-ahead leaves the RS communication exposed: (iteration span,"
          " GPU busy + 0.9 RS comm)",
          lambda b: (_fig3(b)[0], _fig3(b)[1] + _fig3(b)[3] * 0.9),
          lambda v: v[0] >= v[1]),
    Claim("fig6.iteration_is_gpu_busy", "§III.C Fig. 6",
          "with the split update every phase hides: (iteration span, GPU busy)",
          lambda b: _iteration(b.timelines[Schedule.SPLIT_UPDATE])[:2],
          lambda v: abs(v[0] - v[1]) <= 0.02 * v[1]),
    Claim("fig6.rs_inside_updates", "§III.C Fig. 6",
          "RS1 ends inside UPDATE2 and RS2 inside UPDATE1: ((RS1 end,"
          " UPDATE2 end), (RS2 end, UPDATE1 end))",
          _fig6_windows, lambda v: all(rs <= up + 1e-9 for rs, up in v)),
    Claim("fig7.hidden_time_fraction", "§III.C",
          "all MPI hidden for ~75 % of the run's time",
          lambda b: b.fig7.hidden_time_fraction, lambda v: 0.70 < v <= 0.80,
          pinned=0.7629118310573169),
    Claim("sec3c.split_fraction_optimum", "§III.C",
          "a 50-50 split works optimally on one node (TFLOPS by fraction)",
          lambda b: {f: r.score_tflops for f, r in b.split_sweep.items()},
          lambda v: abs(max(v, key=v.get) - 0.5) <= 0.1
          and v[0.5] >= v[0.1] and v[0.5] >= v[0.9]),
    Claim("sec3c.hidden_needs_half", "§III.C",
          "the ~75 % hidden time needs the 50-50 split: (hidden at 0.5, at 0.1)",
          lambda b: (b.split_sweep[0.5].hidden_time_fraction,
                     b.split_sweep[0.1].hidden_time_fraction),
          lambda v: v[0] > v[1]),
    Claim("sec3c.schedule_ladder", "§III.C",
          "each optimization layer helps at full size: split > look-ahead >"
          " classic (TFLOPS)",
          lambda b: {s.value: b.schedules[FIG7.n, s] for s in Schedule},
          lambda v: v["split"] > v["lookahead"] > v["classic"]),
    Claim("sec3c.split_gain_grows_with_n", "§III.C",
          "the split pays at HBM-filling N, less at small N: split/look-ahead"
          " at N=65 536 and at 256 000",
          lambda b: tuple(b.schedules[n, Schedule.SPLIT_UPDATE]
                          / b.schedules[n, Schedule.LOOKAHEAD]
                          for n in (65_536, FIG7.n)),
          lambda v: v[0] < v[1]),
    # §IV.A, Fig. 7
    Claim("sec4a.dgemm_per_mi250x", "§IV.A",
          "DGEMM at NB=512 reaches 49 TFLOPS per MI250X",
          lambda b: 2 * b.dgemm_per_gcd, lambda v: 48.4 <= v <= 49.6),
    Claim("sec4a.node_ceiling", "§IV.A",
          "the achievable node ceiling is 4 x 49 = 196 TFLOPS",
          lambda b: 8 * b.dgemm_per_gcd, lambda v: 193.6 <= v <= 198.4),
    Claim("sec4a.nb512_sweet_spot", "§IV.A",
          "'we typically choose NB = 512 to strike this balance' (TFLOPS by NB)",
          lambda b: b.nb_sweep, lambda v: v[512] > v[128] and v[512] > v[2048]),
    Claim("fig7.score", "§IV.A",
          "~153 TFLOPS on one node (N=256 000, NB=512, 4x2)",
          lambda b: b.fig7.score_tflops, lambda v: 140.76 <= v <= 165.24,
          pinned=157.09513660735203),
    Claim("fig7.score_fraction_of_ceiling", "§IV.A",
          "the score is 78 % of the 4 x 49 TFLOPS ceiling",
          lambda b: b.fig7.score_tflops / (8 * b.dgemm_per_gcd),
          lambda v: 0.73 <= v <= 0.83),
    Claim("fig7.early_regime_rate", "§IV.A",
          "~175 TFLOPS (~90 % of 196) while the update hides everything",
          lambda b: b.fig7.early_regime_tflops(), lambda v: 176.4 < v <= 185.5,
          pinned=181.3091112130893),
    Claim("fig7.early_regime_hidden", "§IV.A Fig. 7",
          "at first the iteration time precisely corresponds to GPU time:"
          " (hidden among the first 200 iterations, largest relative gap over"
          " the first 50)",
          lambda b: (int(b.fig7.hidden[:200].sum()),
                     max(abs(it.time - it.gpu_active) / it.gpu_active
                         for it in b.fig7.iterations[:50])),
          lambda v: v[0] == 200 and v[1] <= 0.02),
    Claim("fig7.crossover", "§IV.A Fig. 7",
          "around iteration 250 of 500 the left section stops hiding RS2",
          lambda b: b.fig7.first_exposed, lambda v: 200 <= v <= 300,
          pinned=241),
    Claim("fig7.tail_exposed", "§IV.A Fig. 7",
          "past the crossover nothing hides: hidden among the last 120"
          " iterations",
          lambda b: int(b.fig7.hidden[-120:].sum()), lambda v: v == 0),
    Claim("fig7.tail_critical_path", "§IV.A Fig. 7",
          "FACT + MPI + transfer become the critical path: (least share of"
          " iteration time, iterations -120..-3; least ratio to GPU time,"
          " -20..-2)",
          lambda b: (min(s / it.time for it, s in _stacked(b, -120, -2)),
                     min(s / it.gpu_active for it, s in _stacked(b, -20, -1))),
          lambda v: v[0] > 0.75 and v[1] > 1),
    Claim("fig7.gpu_leaves_tail", "§IV.A Fig. 7",
          "GPU activity leaves the critical path: tail GPU time per iteration"
          " over the first 50's",
          lambda b: _gpu_per_iteration(b.fig7.iterations[-120:-2])
          / _gpu_per_iteration(b.fig7.iterations[:50]),
          lambda v: v < 0.2),
    Claim("fig7.iteration_time_shrinks", "§IV.A Fig. 7",
          "iterations shrink with the trailing matrix: (first 100 over last"
          " 100, first 50 over last 50, shortest iteration)",
          lambda b: (_time_ratio(b, 100), _time_ratio(b, 50),
                     min(b.fig7.time.tolist())),
          lambda v: v[0] > 5 and v[1] > 1 and v[2] > 0),
    # §IV.B, Fig. 8
    Claim("fig8.scores", "§IV.B Fig. 8",
          "the score rises with every doubling of nodes (TFLOPS by nodes)",
          lambda b: _fig8(b, lambda pt: pt.tflops),
          lambda v: _increasing(list(v.values()))),
    Claim("fig8.efficiency", "§IV.B Fig. 8",
          "over 90 % weak-scaling efficiency from one node out to 128",
          _efficiency, lambda v: abs(v[1] - 1.0) <= 1e-12 and min(v.values()) > 0.90),
    Claim("fig8.efficiency_128", "§IV.B Fig. 8",
          ">90 % weak-scaling efficiency at 128 nodes",
          lambda b: _efficiency(b)[128], lambda v: v > 0.90,
          pinned=0.9447822429641267),
    Claim("fig8.efficiency_declines", "§IV.B Fig. 8",
          "efficiency declines with scale: (16 nodes, 128 nodes)",
          lambda b: (_efficiency(b)[16], _efficiency(b)[128]),
          lambda v: v[1] <= v[0] + 0.02),
    Claim("fig8.final_score", "§IV.B Fig. 8",
          "17.75 PFLOPS on 128 nodes (TFLOPS)",
          lambda b: _fig8(b, lambda pt: pt.tflops)[128],
          lambda v: 15_000 <= v <= 21_000,
          pinned=18997.84902689919),
    Claim("fig8.grid_policy", "§IV.B Fig. 8",
          "grids square or 2:1 (P >= Q), 32x32 at 128 nodes (P x Q by nodes)",
          lambda b: _fig8(b, lambda pt: (pt.p, pt.q)),
          lambda v: all(p in (q, 2 * q) for p, q in v.values())
          and v[128] == (32, 32)),
    # §V
    Claim("fig7.hidden_iteration_fraction", "§V",
          "MPI and CPU work hide entirely for the first ~50 % of iterations",
          lambda b: b.fig7.hidden_iteration_fraction, lambda v: 0.42 <= v <= 0.58,
          pinned=0.484),
    Claim("sec5.score_rises_with_compute", "§V",
          "faster accelerators still raise the absolute score (N=131 072,"
          " TFLOPS at 1x, 2x, 4x compute)",
          lambda b: [pt.score_tflops for pt in b.generations_131k],
          lambda v: _increasing(v, strict=False)),
    Claim("sec5.efficiency_falls_with_compute", "§V",
          "compute outpacing the network lowers the fraction of peak:"
          " (efficiency at 0.5x..8x, N=256 000; at 1x, 2x, 4x, N=131 072)",
          lambda b: ([pt.efficiency for pt in b.generations],
                     [pt.efficiency for pt in b.generations_131k]),
          lambda v: _increasing(v[0][::-1]) and _increasing(v[1][::-1])
          and v[1][2] < 0.5 * v[1][0]),
    Claim("sec5.hidden_window_closes", "§V",
          "the hidden window shrinks with compute and is gone at 2x: (hidden"
          " at 2x, N=256 000; hidden at 1x, 2x, 4x, N=131 072)",
          lambda b: ({pt.compute_scale: pt.hidden_time_fraction
                      for pt in b.generations}[2.0],
                     [pt.hidden_time_fraction for pt in b.generations_131k]),
          lambda v: v[0] == 0.0 and _increasing(v[1][::-1], strict=False)),
    Claim("energy.near_peak_draw", "§V",
          "HPL holds the node near its peak draw: mean over peak power",
          lambda b: b.energy.mean_node_w / b.energy.peak_node_w,
          lambda v: v > 0.85),
    Claim("energy.gflops_per_w", "§V",
          "consistent with Frontier's ~52 GFLOPS/W",
          lambda b: b.energy.gflops_per_w, lambda v: 40 <= v <= 70),
    Claim("energy.gpu_dominates", "§V",
          "the GPU-bound regime dominates the energy: (GPU J, CPU J)",
          lambda b: (b.energy.components["gpu"], b.energy.components["cpu"]),
          lambda v: v[0] > v[1]),
)

BY_ID = {claim.id: claim for claim in CLAIMS}
