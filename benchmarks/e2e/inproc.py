"""The three in-process workloads: both simulator engines and numeric HPL.

None of them touches the service, so they are its no-change controls;
``numeric_hpl`` also bypasses the pricing stack.
"""

from __future__ import annotations

import time

from repro import HPLConfig, run_hpl
from repro.machine.frontier import crusher_cluster
from repro.perf import simulate_run

from . import gen, verify
from .harness import Op, Workload

WARMUP_CYCLES = 2
CHECKSUM_OPS = 64


class SimulatorWorkload(Workload):
    """One caller pricing a seeded stream of distinct configs in-process.

    The stream goes round-robin over node counts, and a window always
    ends on a complete cycle so every size class has the same number of
    ops and throughput does not depend on where the cycle was cut.
    """

    fidelity = ""
    nodes: tuple[int, ...] = ()

    def stream(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.clusters = {n: crusher_cluster(n) for n in self.nodes}
        self.points = self.stream()
        for _ in range(WARMUP_CYCLES):
            self.one_cycle(0)

    def one_cycle(self, caller: int) -> list[Op]:
        ops = []
        for _ in self.nodes:
            nnodes, payload = next(self.points)
            cfg = gen.perf_config(payload)
            start = time.perf_counter()
            with self.rec.span(f"perf.simulate_run.{self.fidelity}",
                               op=len(self.ops) + len(ops)):
                report = simulate_run(cfg, self.clusters[nnodes],
                                      fidelity=self.fidelity)
            ops.append(Op(f"{nnodes}node", start, time.perf_counter(), True,
                          (nnodes, cfg), report.makespan))
        return ops


class Fig8Sweep(SimulatorWorkload):
    """The paper's Fig. 8 sweep on the vectorized engine."""

    name = "fig8_sweep"
    fidelity = "fast"
    nodes = gen.SCALE_NODES

    def stream(self):
        return gen.scaling_payloads(self.seed)

    def check(self) -> None:
        """The golden pins hold; digest the seed's first makespans.

        The digest covers a fixed prefix of the stream, so it is the same
        for a seed however many ops the window fitted.
        """
        verify.simulated_anchors()
        self.checksum = verify.makespan_checksum(
            op.output for op in self.ops[:CHECKSUM_OPS])


class Fig7Full(SimulatorWorkload):
    """The same layers through the per-task object engine."""

    name = "fig7_full"
    fidelity = "full"
    nodes = gen.FULL_NODES

    def stream(self):
        return gen.full_payloads(self.seed)

    def check(self) -> None:
        """Every makespan equals the fast engine's for the same config."""
        for op in self.ops:
            nnodes, cfg = op.input
            fast = simulate_run(cfg, self.clusters[nnodes], fidelity="fast")
            if fast.makespan != op.output:
                op.ok, op.note = False, "full and fast makespans differ"


class NumericHpl(Workload):
    """Verified split-update solves on a 2x2 simulated-MPI grid."""

    name = "numeric_hpl"

    def setup(self) -> None:
        self.configs = gen.hpl_configs(self.seed)
        # Warm-up: a small solve loads every module and starts BLAS.
        warm = run_hpl(HPLConfig(n=128, nb=32, p=2, q=2, fact_threads=2))
        if not warm.passed:
            raise RuntimeError("warm-up solve failed verification")

    def one_cycle(self, caller: int) -> list[Op]:
        cfg = next(self.configs)
        start = time.perf_counter()
        with self.rec.span("hpl.run_hpl", op=len(self.ops)):
            result = run_hpl(cfg)
        return [Op("solve", start, time.perf_counter(), True, cfg, result)]

    def check(self) -> None:
        """Residual test on every solve; the first against LAPACK too."""
        for i, op in enumerate(self.ops):
            if verify.hpl_wrong(op.output, check_solution=(i == 0)):
                op.ok, op.note = False, "solve failed verification"
