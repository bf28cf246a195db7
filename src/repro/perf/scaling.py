"""Weak-scaling study (the paper's Figure 8).

For each node count the paper keeps the grid "square, or with a 2:1 ratio
of P to Q", maximizes node-local process columns (``1 x 8`` once Q >= 8),
scales N to fill the GPUs' HBM, and holds NB = 512 and the 50 % split.
``weak_scaling`` reproduces exactly that sweep on the performance
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import Schedule
from ..errors import ConfigError
from ..machine.frontier import crusher_cluster
from ..machine.spec import ClusterSpec
from .hplsim import RunReport, simulate_run
from .ledger import PerfConfig


def choose_grid(nranks: int) -> tuple[int, int]:
    """Square-or-2:1 grid for ``nranks`` (P >= Q), the paper's policy."""
    if nranks < 1:
        raise ConfigError(f"nranks must be >= 1, got {nranks}")
    best: tuple[int, int] | None = None
    for q in range(1, int(math.isqrt(nranks)) + 1):
        if nranks % q:
            continue
        p = nranks // q
        if best is None or p / q < best[0] / best[1]:
            best = (p, q)
    assert best is not None
    return best


def node_local_grid(p: int, q: int, gpus: int = 8) -> tuple[int, int]:
    """Node-local grid maximizing process columns (1x8 once Q >= gpus)."""
    ql = math.gcd(q, gpus)
    pl = gpus // ql
    while p % pl or q % ql:
        # fall back toward taller local grids until they tile the globals
        if ql == 1:
            raise ConfigError(f"cannot tile {p}x{q} with {gpus} ranks per node")
        ql //= 2
        pl = gpus // ql
    return pl, ql


def scaled_n(nnodes: int, n_single: int, nb: int) -> int:
    """Fill-HBM problem size: N grows with sqrt(nodes), NB-aligned."""
    return int(round(n_single * math.sqrt(nnodes) / nb)) * nb


@dataclass
class ScalePoint:
    """One node count of the weak-scaling sweep."""

    nnodes: int
    n: int
    p: int
    q: int
    report: RunReport

    @property
    def tflops(self) -> float:
        return self.report.score_tflops


def weak_scaling(
    node_counts: list[int] | None = None,
    n_single: int = 256_000,
    nb: int = 512,
    schedule: Schedule = Schedule.SPLIT_UPDATE,
    cluster_factory=crusher_cluster,
    fidelity: str | None = None,
) -> list[ScalePoint]:
    """Run the Fig. 8 sweep; default node counts 1, 2, 4, ..., 128.

    ``fidelity``: ignored; goes with the PR that retargets ``fig7_full``.
    """
    if node_counts is None:
        node_counts = [2**i for i in range(8)]
    points: list[ScalePoint] = []
    for nnodes in node_counts:
        cluster: ClusterSpec = cluster_factory(nnodes)
        gpus = cluster.node.gpus
        p, q = choose_grid(nnodes * gpus)
        # single node: the whole grid is node-local
        pl, ql = (p, q) if nnodes == 1 else node_local_grid(p, q, gpus)
        n = scaled_n(nnodes, n_single, nb)
        cfg = PerfConfig(n=n, nb=nb, p=p, q=q, pl=pl, ql=ql, schedule=schedule)
        points.append(
            ScalePoint(nnodes=nnodes, n=n, p=p, q=q,
                       report=simulate_run(cfg, cluster))
        )
    return points


def weak_scaling_efficiency(points: list[ScalePoint]) -> list[float]:
    """Per-point efficiency against perfect scaling from the first point."""
    if not points:
        return []
    base = points[0].tflops / points[0].nnodes
    return [pt.tflops / (base * pt.nnodes) for pt in points]
