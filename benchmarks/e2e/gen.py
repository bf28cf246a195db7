"""Seeded input generators: the program sees only what these produce.

Every stream is a pure function of ``--seed`` and never repeats a
config, so neither the service's content-addressed dedup/cache nor the
32-entry ``run_cost_arrays`` memo can hit unless a workload resubmits a
point on purpose.
"""

from __future__ import annotations

import random
from typing import Iterator

NBS = (256, 384, 512)
#: Single-node Fig. 7-class problem sizes (the paper's run is N = 256000).
SIM_N_RANGE = (192_000, 256_000)
#: Fig. 8 sweeps scale this single-node N by sqrt(nodes).
SCALE_N_SINGLE_RANGE = (224_000, 256_000)
SCALE_NODES = (1, 8, 32, 128)
FULL_NODES = (1, 8)
SPLIT_GRID = (300, 700)  # split fraction in thousandths
#: 12 panel iterations on a 2x2 grid.  One solve varies +-15 % from
#: thread scheduling alone, so the problem is sized for ~25 solves per
#: 15 s window rather than for BLAS time (which is negligible up to
#: N = 768 here: the op is interpreter and simulated-MPI overhead).
HPL_N, HPL_NB = 384, 32


def _rng(seed: int, stream: str) -> random.Random:
    # A str seed is hashed with sha512 by random.seed: stable across
    # runs and interpreters, unlike hash().
    return random.Random(f"{stream}:{seed}")


def _aligned(rng: random.Random, lo: int, hi: int, nb: int) -> int:
    return rng.randint(-(-lo // nb), hi // nb) * nb


def sim_payloads(seed: int) -> Iterator[dict]:
    """Endless distinct ``sim`` job payloads on one 4x2 node."""
    rng = _rng(seed, "sim")
    seen: set[tuple] = set()
    while True:
        nb = rng.choice(NBS)
        point = (_aligned(rng, *SIM_N_RANGE, nb), nb,
                 rng.randint(*SPLIT_GRID))
        if point in seen:
            continue
        seen.add(point)
        n, nb, split = point
        yield {"n": n, "nb": nb, "p": 4, "q": 2,
               "split_fraction": split / 1000.0}


def perf_config(payload: dict):
    """The ``PerfConfig`` a ``sim`` payload describes (service defaults)."""
    from repro.perf import PerfConfig

    return PerfConfig(
        n=payload["n"], nb=payload["nb"], p=payload["p"], q=payload["q"],
        pl=payload.get("pl") or payload["p"],
        ql=payload.get("ql") or payload["q"],
        split_fraction=payload["split_fraction"],
    )


def scaling_payloads(seed: int) -> Iterator[tuple[int, dict]]:
    """Endless distinct ``(nodes, payload)`` weak-scaling points.

    Node counts go round-robin; the grid, the node-local grid and N
    follow ``repro.perf.scaling.weak_scaling``'s recipe exactly.
    """
    from repro.perf.scaling import choose_grid, node_local_grid, scaled_n

    rng = _rng(seed, "scale")
    seen: set[tuple] = set()
    while True:
        for nnodes in SCALE_NODES:
            while True:
                nb = rng.choice(NBS)
                point = (nnodes, _aligned(rng, *SCALE_N_SINGLE_RANGE, nb),
                         nb, rng.randint(*SPLIT_GRID))
                if point not in seen:
                    break
            seen.add(point)
            _, n_single, nb, split = point
            p, q = choose_grid(nnodes * 8)
            pl, ql = (p, q) if nnodes == 1 else node_local_grid(p, q, 8)
            yield nnodes, {
                "n": scaled_n(nnodes, n_single, nb), "nb": nb,
                "p": p, "q": q, "pl": pl, "ql": ql,
                "split_fraction": split / 1000.0,
            }


def full_payloads(seed: int) -> Iterator[tuple[int, dict]]:
    """Endless distinct points for the per-task engine, fixed task counts.

    Alternates the paper's 1-node (500 iterations) and 8-node (1414
    iterations) runs at NB = 512; N moves inside its last block and the
    split on its grid, so every config is new while the task graph
    keeps its size and op cost stays comparable from seed to seed.
    """
    from repro.perf.scaling import choose_grid, node_local_grid, scaled_n

    nb = 512
    rng = _rng(seed, "full")
    seen: set[tuple] = set()
    while True:
        for nnodes in FULL_NODES:
            nblocks = scaled_n(nnodes, 256_000, nb) // nb
            while True:
                point = (nnodes, nblocks * nb - rng.randrange(nb),
                         rng.randint(*SPLIT_GRID))
                if point not in seen:
                    break
            seen.add(point)
            p, q = choose_grid(nnodes * 8)
            pl, ql = (p, q) if nnodes == 1 else node_local_grid(p, q, 8)
            yield nnodes, {
                "n": point[1], "nb": nb, "p": p, "q": q, "pl": pl, "ql": ql,
                "split_fraction": point[2] / 1000.0,
            }


def hpl_configs(seed: int):
    """Endless numeric HPL configs differing only in the matrix seed."""
    from repro import HPLConfig

    rng = _rng(seed, "hpl")
    seen: set[int] = set()
    while True:
        matrix_seed = rng.randint(1, 2**31 - 1)
        if matrix_seed in seen:
            continue
        seen.add(matrix_seed)
        yield HPLConfig(n=HPL_N, nb=HPL_NB, p=2, q=2, fact_threads=2,
                        seed=matrix_seed)
