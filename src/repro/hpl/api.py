"""One-call entry point: generate, factor, solve, verify.

``run_hpl`` is the library's quickstart surface: it launches the SPMD job
on the simulated-MPI runtime, runs the configured schedule, back-solves,
and applies HPL's residual acceptance test.  For the *performance* side of
the benchmark (the paper's figures), see :mod:`repro.perf`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import HPLConfig
from ..errors import VerificationError
from ..grid.process_grid import ProcessGrid
from ..simmpi import CommStats, Communicator, Fabric, run_spmd
from .backsolve import backsolve
from .driver import factorize
from .matrix import DistMatrix
from .timers import Timers
from .verify import Verification, verify


@dataclass
class HPLResult:
    """Outcome of one HPL run.

    Attributes:
        config: The configuration that produced this result.
        x: The solution vector (length ``n``).
        resid: HPL's scaled residual.
        passed: Whether the residual beat the 16.0 threshold.
        wall_seconds: End-to-end factor+solve wall time (diagnostic only;
            the numeric engine is not the paper's hardware).
        timers: Per-rank read-only views over the executed tasks:
            ``timers[r].total(label)`` sums rank ``r``'s seconds, flops and
            transfer bytes under a step label, and iterating
            ``timers[r]`` yields its tasks (flop/byte counts are exact).
        comm_stats: Per-rank communication statistics by phase.
    """

    config: HPLConfig
    x: np.ndarray
    resid: float
    passed: bool
    wall_seconds: float
    timers: list[Timers]
    comm_stats: list[CommStats]

    @property
    def verification(self) -> Verification:
        return self._verification

    def __post_init__(self) -> None:
        self._verification: Verification | None = None


def _rank_main(comm: Communicator, cfg: HPLConfig):
    grid = ProcessGrid(comm, cfg.p, cfg.q, row_major=cfg.row_major_grid)
    mat = DistMatrix(grid, cfg.n, cfg.nb, seed=cfg.seed)
    t0 = time.perf_counter()
    fact = factorize(mat, cfg)
    x = backsolve(mat)
    wall = time.perf_counter() - t0
    check = verify(mat, x) if cfg.check else None
    return x, check, wall, fact.timers, comm.stats


def run_hpl_dat(path: str, **overrides) -> list[HPLResult]:
    """Run every configuration an HPL.dat file describes.

    The library-API twin of ``python -m repro dat``: parses the Netlib
    input file, expands the cross product, runs each configuration, and
    returns the results in file order.  ``overrides`` are forwarded to
    every expanded :class:`~repro.config.HPLConfig` (e.g. ``seed=7``).
    """
    import pathlib

    from .dat import parse_hpl_dat

    dat = parse_hpl_dat(pathlib.Path(path).read_text())
    return [run_hpl(cfg) for cfg in dat.configs(**overrides)]


def run_hpl(cfg: HPLConfig, *, raise_on_failure: bool = False) -> HPLResult:
    """Run the full HPL benchmark for ``cfg`` on ``p*q`` simulated ranks.

    Args:
        cfg: The run configuration.
        raise_on_failure: Raise :class:`~repro.errors.VerificationError`
            instead of returning a failed result.

    Returns:
        The :class:`HPLResult`; identical numerics on every rank, with
        rank 0's view reported.
    """
    fabric = Fabric(cfg.nranks)
    outs = run_spmd(cfg.nranks, _rank_main, cfg, fabric=fabric)
    x, check, wall, _, _ = outs[0]
    resid = check.resid if check is not None else float("nan")
    passed = check.passed if check is not None else True
    if raise_on_failure and not passed:
        raise VerificationError(
            f"HPL residual {resid:.3e} exceeds threshold 16.0 "
            f"(n={cfg.n}, nb={cfg.nb}, grid={cfg.p}x{cfg.q})"
        )
    result = HPLResult(
        config=cfg,
        x=x,
        resid=resid,
        passed=passed,
        wall_seconds=max(out[2] for out in outs),
        timers=[out[3] for out in outs],
        comm_stats=[out[4] for out in outs],
    )
    result._verification = check
    return result
