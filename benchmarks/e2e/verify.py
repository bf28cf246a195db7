"""Output checks, in one place: throughput never counts unverified work.

Every workload hands its outputs here after its timed window.  A check
says whether one output is wrong (its op then counts as failed) or
raises :class:`CheckFailed` when a run-level invariant does not hold.
"""

from __future__ import annotations

import hashlib
import struct

from . import gen

#: Pins of ``tests/test_golden_headline.py`` (same values, same 1e-9
#: tolerance): the paper's physics must not move under a perf change.
GOLDEN_REL = 1e-9
GOLDEN = {
    "score_tflops_1node": 157.09513660735203,
    "hidden_time_fraction_1node": 0.7629118310573169,
    "hidden_iteration_fraction_1node": 0.484,
    "score_tflops_128node": 18997.84902689919,
    "efficiency_128node": 0.9447822429641267,
}

#: What the paper reports for the same three anchors.
PAPER = {
    "score_tflops_1node": 153.0,
    "score_tflops_128node": 17_750.0,
    "hidden_time_fraction_1node": 0.75,
}

RESID_THRESHOLD = 16.0
SIM_RESULT_FIELDS = ("score_tflops", "makespan", "iterations")


class CheckFailed(AssertionError):
    """A run-level output check did not hold."""


def simulated_anchors() -> dict:
    """Simulate the Fig. 7 run and the Fig. 8 end points; check the pins.

    Returns the simulated statistics (deterministic: a host-speed change
    must leave every one of them identical).
    """
    from repro.machine.frontier import crusher_cluster
    from repro.perf import PerfConfig, simulate_run
    from repro.perf.scaling import weak_scaling, weak_scaling_efficiency

    fig7 = simulate_run(PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2),
                        crusher_cluster(1), fidelity="fast")
    points = weak_scaling([1, 128], fidelity="fast")
    got = {
        "score_tflops_1node": fig7.score_tflops,
        "hidden_time_fraction_1node": fig7.hidden_time_fraction,
        "hidden_iteration_fraction_1node": fig7.hidden_iteration_fraction,
        "score_tflops_128node": points[-1].tflops,
        "efficiency_128node": weak_scaling_efficiency(points)[-1],
    }
    for name, want in GOLDEN.items():
        if abs(got[name] - want) > GOLDEN_REL * abs(want):
            raise CheckFailed(
                f"golden pin moved: {name} = {got[name]!r}, pinned {want!r}")
    got["model_abs_err_pct"] = 100.0 * max(
        abs(got[name] - paper) / paper for name, paper in PAPER.items())
    return got


def sim_result_of(payload: dict) -> dict:
    """The fields a ``sim`` job reports, computed in this process."""
    from repro.machine.frontier import crusher_cluster
    from repro.perf import simulate_run

    cfg = gen.perf_config(payload)
    nodes = (cfg.p // cfg.pl) * (cfg.q // cfg.ql)
    report = simulate_run(cfg, crusher_cluster(nodes), fidelity="fast")
    return {"score_tflops": report.score_tflops,
            "makespan": report.makespan,
            "iterations": len(report.iterations)}


def service_result_wrong(payload: dict, result) -> bool:
    """Does a job's result differ from an in-process run, bit for bit?"""
    if not isinstance(result, dict):
        return True
    want = sim_result_of(payload)
    return any(result.get(f) != want[f] for f in SIM_RESULT_FIELDS)


def makespan_checksum(makespans) -> str:
    """Digest of a makespan sequence: one printable value per seed."""
    digest = hashlib.sha256()
    for value in makespans:
        digest.update(struct.pack("<d", value))
    return digest.hexdigest()[:16]


def hpl_wrong(result, check_solution: bool) -> bool:
    """HPL's own acceptance test, plus a reference solve on request."""
    if not result.passed or not result.resid <= RESID_THRESHOLD:
        return True
    if not check_solution:
        return False
    import numpy as np

    a, b = dense_system(result.config)
    return not np.allclose(result.x, np.linalg.solve(a, b),
                           rtol=1e-8, atol=1e-10)


def dense_system(cfg):
    """The dense ``A`` and ``b`` that ``run_hpl(cfg)`` solves."""
    from repro.hpl.matrix import generate_global

    return generate_global(cfg.n, cfg.seed)
