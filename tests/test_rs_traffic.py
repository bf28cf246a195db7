"""RS traffic cross-check: measured bytes == plan-derived formulas.

The row swap is the most intricate communication path in the benchmark
(net-permutation planning, per-rank U contributions, root packets).  This
test reruns the swap *planning* from the recorded pivots and computes,
rank by rank, exactly how many bytes the ring allgatherv and the scatterv
must have moved -- then checks the fabric's measured per-phase statistics
agree to the byte.
"""

from __future__ import annotations

import numpy as np

from repro.config import HPLConfig, Schedule
from repro.grid import ProcessGrid
from repro.grid.block_cyclic import num_local_before, numroc
from repro.hpl.driver import factorize
from repro.hpl.matrix import DistMatrix
from repro.hpl.rowswap import compute_swap_plan
from repro.simmpi import Fabric, run_spmd


def _expected_rs_bytes(cfg: HPLConfig, all_ipiv: list[np.ndarray]) -> float:
    """Total RS bytes sent across all ranks, from the swap plans alone."""
    n, nb, p, q = cfg.n, cfg.nb, cfg.p, cfg.q
    total = 0.0
    for k, ipiv in enumerate(all_ipiv):
        j0 = k * nb
        jb = min(nb, n - j0)
        plan = compute_swap_plan(ipiv, j0, jb)
        owners_u = (plan.u_src // nb) % p
        owners_out = (plan.out_dest // nb) % p
        block_owner = (j0 // nb) % p
        for col in range(q):
            nloc = numroc(n + 1, nb, col, q)
            lo = num_local_before(j0 + jb, nb, col, q)
            w = nloc - lo
            # ring allgatherv: rank r forwards blocks r, r-1, ..., r-p+2
            for r in range(p):
                for step in range(p - 1):
                    block = (r - step) % p
                    total += 8.0 * int((owners_u == block).sum()) * w
            # scatterv: root sends each non-root rank its packet
            for r in range(p):
                if r != block_owner:
                    total += 8.0 * int((owners_out == r).sum()) * w
    return total


def test_measured_rs_bytes_match_plans():
    cfg = HPLConfig(n=48, nb=8, p=3, q=2, schedule=Schedule.CLASSIC)
    fabric = Fabric(cfg.nranks, watchdog=60.0)

    def main(comm):
        grid = ProcessGrid(comm, cfg.p, cfg.q)
        mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
        return [ipiv.copy() for ipiv in factorize(mat, cfg).ipiv]

    all_ipiv = run_spmd(cfg.nranks, main, fabric=fabric)[0]
    measured = sum(
        s.phases["RS"].bytes_sent for s in fabric.stats if "RS" in s.phases
    )
    assert measured == _expected_rs_bytes(cfg, all_ipiv)


def test_split_schedule_moves_same_rs_volume():
    """The split schedule reorders RS communication but must move exactly
    the same bytes as the classic schedule (same plans, same sections sum)."""

    def run(schedule):
        cfg = HPLConfig(
            n=48, nb=8, p=2, q=2, schedule=schedule,
        )
        fabric = Fabric(cfg.nranks, watchdog=60.0)

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            factorize(mat, cfg)

        run_spmd(cfg.nranks, main, fabric=fabric)
        return sum(
            s.phases["RS"].bytes_sent for s in fabric.stats if "RS" in s.phases
        )

    assert run(Schedule.CLASSIC) == run(Schedule.SPLIT_UPDATE) == run(
        Schedule.LOOKAHEAD
    )


def test_binexch_moves_more_bytes_than_ring():
    """Binary exchange trades bandwidth for latency: strictly more bytes
    on the wire than the spread-roll ring for p > 2."""
    from repro.config import SwapVariant

    def run(swap):
        cfg = HPLConfig(n=48, nb=8, p=4, q=1, swap=swap)
        fabric = Fabric(cfg.nranks, watchdog=60.0)

        def main(comm):
            grid = ProcessGrid(comm, cfg.p, cfg.q)
            mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
            factorize(mat, cfg)

        run_spmd(cfg.nranks, main, fabric=fabric)
        return sum(
            s.phases["RS"].bytes_sent for s in fabric.stats if "RS" in s.phases
        )

    assert run(SwapVariant.BINEXCH) > run(SwapVariant.LONG)
