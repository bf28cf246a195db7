"""Topology-aware communication cost model.

Maps the global ``P x Q`` process grid onto nodes (each node hosting a
``pl x ql`` node-local sub-grid, rocHPL's launch-wrapper convention) and
prices the collectives HPL issues, using the on-node Infinity Fabric link
for same-node peers and the NIC for off-node peers -- the two factors the
paper names when explaining why multi-node MPI time grows.

Costs are returned as *critical-path seconds at the focal rank* for
pipelined operations (a steady-state ring broadcast costs each rank one
receive plus one forward, not the whole ring), and as full completion time
for synchronous assemblies (allgatherv, allreduce), which is how the
timeline simulator consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import BcastVariant
from ..errors import ConfigError
from .spec import ClusterSpec, LinkSpec


def _link_seconds_array(link: LinkSpec, nbytes: np.ndarray) -> np.ndarray:
    """Elementwise :meth:`LinkSpec.seconds`; callers mask empty payloads."""
    return link.latency_s + nbytes / (link.bandwidth_gbs * 1e9)


@dataclass(frozen=True)
class GridTopology:
    """Placement of a global grid onto cluster nodes.

    Nodes tile the grid in ``pl x ql`` blocks: grid coordinate
    ``(r, c)`` lives on node ``(r // pl) * ceil(Q/ql) + (c // ql)``.
    """

    p: int
    q: int
    pl: int
    ql: int

    def __post_init__(self) -> None:
        if self.p % self.pl or self.q % self.ql:
            raise ConfigError(
                f"node-local grid {self.pl}x{self.ql} does not tile {self.p}x{self.q}"
            )

    @property
    def nnodes(self) -> int:
        return (self.p // self.pl) * (self.q // self.ql)

    def node_of(self, row: int, col: int) -> int:
        return (row // self.pl) * (self.q // self.ql) + (col // self.ql)

    def same_node(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self.node_of(*a) == self.node_of(*b)

    def col_members(self, col: int) -> list[tuple[int, int]]:
        return [(r, col) for r in range(self.p)]

    def row_members(self, row: int) -> list[tuple[int, int]]:
        return [(row, c) for c in range(self.q)]


class CommModel:
    """Prices HPL's collectives on a :class:`GridTopology`."""

    def __init__(self, cluster: ClusterSpec, topo: GridTopology):
        if topo.nnodes > cluster.nnodes:
            raise ConfigError(
                f"grid needs {topo.nnodes} nodes, cluster has {cluster.nnodes}"
            )
        self.cluster = cluster
        self.topo = topo
        # Link structure depends only on membership, never on payload, so
        # full-machine sweeps (tens of thousands of iterations) cache it.
        self._ring_cache: dict[tuple, LinkSpec] = {}
        self._worst_cache: dict[tuple, LinkSpec] = {}
        self._peer_cache: dict[tuple, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def link(self, a: tuple[int, int], b: tuple[int, int]) -> LinkSpec:
        """The link between two grid members."""
        node = self.cluster.node
        return node.gpu_gpu if self.topo.same_node(a, b) else node.nic

    def _ring_link(self, members: list[tuple[int, int]]) -> LinkSpec:
        """The slowest neighbour-to-neighbour link around the ring."""
        key = tuple(members)
        cached = self._ring_cache.get(key)
        if cached is not None:
            return cached
        node = self.cluster.node
        worst = node.gpu_gpu
        k = len(members)
        for i in range(k):
            if not self.topo.same_node(members[i], members[(i + 1) % k]):
                worst = node.nic
                break
        self._ring_cache[key] = worst
        return worst

    def _worst_link(self, members: list[tuple[int, int]]) -> LinkSpec:
        key = tuple(members)
        cached = self._worst_cache.get(key)
        if cached is not None:
            return cached
        node = self.cluster.node
        worst = node.gpu_gpu
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not self.topo.same_node(a, b):
                    worst = node.nic
                    break
            if worst is node.nic:
                break
        self._worst_cache[key] = worst
        return worst

    def _peer_split(
        self, root: tuple[int, int], members: list[tuple[int, int]]
    ) -> tuple[int, int]:
        """(on-node, off-node) peer counts from ``root`` (cached)."""
        key = (root, tuple(members))
        cached = self._peer_cache.get(key)
        if cached is not None:
            return cached
        on = sum(
            1 for m in members if m != root and self.topo.same_node(root, m)
        )
        off = len(members) - 1 - on
        self._peer_cache[key] = (on, off)
        return on, off

    def p2p_seconds(
        self, a: tuple[int, int], b: tuple[int, int], nbytes: float
    ) -> float:
        """One point-to-point message."""
        return self.link(a, b).seconds(nbytes)

    # ------------------------------------------------------------------
    # Collectives: one membership, an array of payloads (a scalar payload
    # is a length-1 view).  The membership's link structure is resolved
    # once per call, so the ledger prices a whole run's worth of payloads
    # for one grid row or column at a time.
    # ------------------------------------------------------------------
    def bcast_seconds_array(
        self,
        members: list[tuple[int, int]],
        nbytes: np.ndarray,
        algo: BcastVariant,
    ) -> np.ndarray:
        """Per-iteration LBCAST cost at a participating rank.

        Ring variants pipeline across iterations: a rank's steady-state
        cost is one receive plus one forward.  The two-ring variants halve
        the forwarded volume's path length (two rings run concurrently),
        modeled as a single hop pair on the worst ring link.  ``blong``
        pays scatter + ring-allgather on ``nbytes``.  The binomial tree is
        latency-optimal but keeps every rank busy for ``log2 Q`` hops.
        """
        nbytes = np.asarray(nbytes, dtype=np.float64)
        k = len(members)
        if k <= 1:
            return np.zeros_like(nbytes)
        ring = self._ring_link(members)
        if algo in (
            BcastVariant.ONE_RING,
            BcastVariant.ONE_RING_M,
            # same per-rank traffic; shorter worst path
            BcastVariant.TWO_RING,
            BcastVariant.TWO_RING_M,
        ):
            out = 2.0 * _link_seconds_array(ring, nbytes)
        elif algo is BcastVariant.BLONG:
            chunk = nbytes / k
            scatter = _link_seconds_array(self._worst_link(members), chunk)
            gather = (k - 1) * _link_seconds_array(ring, chunk)
            out = scatter + gather
        elif algo is BcastVariant.BINOMIAL:
            out = math.ceil(math.log2(k)) * _link_seconds_array(
                self._worst_link(members), nbytes
            )
        else:
            raise ConfigError(f"unknown bcast variant {algo}")
        return np.where(nbytes > 0, out, 0.0)

    def allreduce_seconds_array(
        self,
        members: list[tuple[int, int]],
        nbytes: np.ndarray,
        per_hop_overhead: float = 0.0,
    ) -> np.ndarray:
        """Recursive-doubling allreduce: ``ceil(log2 k)`` exchange rounds.

        ``per_hop_overhead`` adds a fixed software cost per round -- the
        FACT pivot collectives stage through host memory and pay MPI
        progression latency on top of the wire.
        """
        nbytes = np.asarray(nbytes, dtype=np.float64)
        k = len(members)
        if k <= 1:
            return np.zeros_like(nbytes)
        link = self._worst_link(members)
        return math.ceil(math.log2(k)) * (
            _link_seconds_array(link, nbytes) + per_hop_overhead
        )

    def allgatherv_seconds_array(
        self, members: list[tuple[int, int]], total_bytes: np.ndarray
    ) -> np.ndarray:
        """Ring allgatherv assembling ``total_bytes``: ``k-1`` chunk hops."""
        total_bytes = np.asarray(total_bytes, dtype=np.float64)
        k = len(members)
        if k <= 1:
            return np.zeros_like(total_bytes)
        chunk = total_bytes / k
        out = (k - 1) * _link_seconds_array(self._ring_link(members), chunk)
        return np.where(total_bytes > 0, out, 0.0)

    def binexch_allgather_seconds_array(
        self, members: list[tuple[int, int]], total_bytes: np.ndarray
    ) -> np.ndarray:
        """Binary-exchange U assembly: ``ceil(log2 k)`` pairwise rounds.

        Following HPL's own cost model for SWAP=binary-exchange, each
        round exchanges on the order of the full U payload, so the
        algorithm is latency-optimal (few rounds) but not
        bandwidth-reducing -- which is exactly why HPL's MIX policy uses
        it only below a width threshold.
        """
        total_bytes = np.asarray(total_bytes, dtype=np.float64)
        k = len(members)
        if k <= 1:
            return np.zeros_like(total_bytes)
        link = self._worst_link(members)
        rounds = math.ceil(math.log2(k))
        out = rounds * _link_seconds_array(link, total_bytes)
        return np.where(total_bytes > 0, out, 0.0)

    def scatterv_seconds_array(
        self,
        root: tuple[int, int],
        members: list[tuple[int, int]],
        total_bytes: np.ndarray,
    ) -> np.ndarray:
        """Root-serialized scatterv of ``total_bytes`` spread over peers."""
        total_bytes = np.asarray(total_bytes, dtype=np.float64)
        k = len(members)
        if k <= 1:
            return np.zeros_like(total_bytes)
        per_peer = total_bytes / (k - 1)
        on, off = self._peer_split(root, members)
        node = self.cluster.node
        out = on * _link_seconds_array(node.gpu_gpu, per_peer) + off * (
            _link_seconds_array(node.nic, per_peer)
        )
        return np.where(total_bytes > 0, out, 0.0)
