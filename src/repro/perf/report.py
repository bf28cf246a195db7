"""rocHPL-style result printers.

HPL prints a characteristic results block; these helpers render our
numeric and simulated runs in that familiar shape, plus tabular dumps of
the Fig. 5 / 7 / 8 series for the benchmark harness.
"""

from __future__ import annotations

import io

from .factsim import FactCurve
from .hplsim import RunReport
from .scaling import ScalePoint, weak_scaling_efficiency


_BANNER = """\
================================================================================
pyroHPL -- reproduction of rocHPL (High-Performance Linpack for exascale
accelerated architectures, SC'23) on a simulated-MPI / modeled-GPU substrate
================================================================================

An explanation of the input/output parameters follows:
T/V    : Wall time / encoded variant.
N      : The order of the coefficient matrix A.
NB     : The partitioning blocking factor.
P      : The number of process rows.
Q      : The number of process columns.
Time   : Time in seconds to solve the linear system.
Gflops : Rate of execution for solving the linear system.
"""


def format_hpl_banner() -> str:
    """The output-file preamble, in the familiar Netlib HPL shape."""
    return _BANNER


def format_hpl_result_block(
    tv: str,
    n: int,
    nb: int,
    p: int,
    q: int,
    seconds: float,
    tflops: float,
    resid: float,
    passed: bool,
    threshold: float = 16.0,
) -> str:
    """One complete per-run block: the T/V row plus the residual check."""
    sep = "-" * 80
    header = (
        f"{'T/V':<16s}{'N':>10s}{'NB':>6s}{'P':>6s}{'Q':>6s}"
        f"{'Time':>16s}{'Gflops':>18s}"
    )
    line = (
        f"{tv:<16s}{n:>10d}{nb:>6d}{p:>6d}{q:>6d}"
        f"{seconds:>16.2f}{tflops * 1000.0:>18.4e}"
    )
    verdict = "PASSED" if passed else "FAILED"
    check = (
        f"||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)= {resid:16.7f} "
        f"...... {verdict}"
    )
    return f"{sep}\n{header}\n{sep}\n{line}\n{sep}\n{check}\n"


def format_hpl_footer(nruns: int, nfailed: int) -> str:
    sep = "=" * 80
    return (
        f"{sep}\n\nFinished {nruns:6d} tests with the following results:\n"
        f"         {nruns - nfailed:6d} tests completed and passed residual checks,\n"
        f"         {nfailed:6d} tests completed and failed residual checks.\n"
        f"{sep}\nEnd of Tests.\n{sep}\n"
    )


def format_hpl_line(
    n: int, nb: int, p: int, q: int, seconds: float, tflops: float, tag: str = "WR0"
) -> str:
    """One result row in Netlib HPL's output format (Gflops column)."""
    return (
        f"{tag:<16s}{n:>10d}{nb:>6d}{p:>6d}{q:>6d}"
        f"{seconds:>16.2f}{tflops * 1000.0:>18.4e}"
    )


def format_run_report(report: RunReport) -> str:
    """The paper's single-node summary for a simulated run."""
    cfg = report.cfg
    out = io.StringIO()
    header = f"{'T/V':<16s}{'N':>10s}{'NB':>6s}{'P':>6s}{'Q':>6s}{'Time':>16s}{'Gflops':>18s}"
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    out.write(
        format_hpl_line(cfg.n, cfg.nb, cfg.p, cfg.q, report.makespan, report.score_tflops)
        + "\n\n"
    )
    out.write(f"score                : {report.score_tflops:8.1f} TFLOPS\n")
    out.write(f"hidden-time fraction : {report.hidden_time_fraction:8.2f}\n")
    out.write(f"hidden iterations    : {report.hidden_iteration_fraction:8.2f}\n")
    out.write(f"early-regime rate    : {report.early_regime_tflops():8.1f} TFLOPS\n")
    return out.getvalue()


def format_breakdown_table(report: RunReport, stride: int = 25) -> str:
    """The Fig. 7 series, one sampled row per ``stride`` iterations."""
    out = io.StringIO()
    out.write(
        f"{'iter':>6s}{'time_ms':>10s}{'gpu_ms':>10s}{'fact_ms':>10s}"
        f"{'mpi_ms':>10s}{'xfer_ms':>10s}{'hidden':>8s}\n"
    )
    names = ("k", "time", "gpu_active", "fact", "mpi", "transfer", "hidden")
    for k, time, gpu, fact, mpi, transfer, hidden in zip(
        *(getattr(report, name)[::stride].tolist() for name in names)
    ):
        out.write(
            f"{k:>6d}{time * 1e3:>10.2f}{gpu * 1e3:>10.2f}"
            f"{fact * 1e3:>10.2f}{mpi * 1e3:>10.2f}"
            f"{transfer * 1e3:>10.2f}{str(hidden):>8s}\n"
        )
    return out.getvalue()


def format_scaling_table(points: list[ScalePoint]) -> str:
    """The Fig. 8 series: score and efficiency per node count."""
    out = io.StringIO()
    out.write(
        f"{'nodes':>6s}{'N':>10s}{'grid':>9s}{'PFLOPS':>10s}{'ideal':>10s}{'eff_%':>8s}\n"
    )
    effs = weak_scaling_efficiency(points)
    base = points[0].tflops / points[0].nnodes if points else 0.0
    for pt, eff in zip(points, effs):
        out.write(
            f"{pt.nnodes:>6d}{pt.n:>10d}{f'{pt.p}x{pt.q}':>9s}"
            f"{pt.tflops / 1e3:>10.2f}{base * pt.nnodes / 1e3:>10.2f}"
            f"{eff * 100.0:>8.1f}\n"
        )
    return out.getvalue()


def format_fact_table(curves: list[FactCurve]) -> str:
    """The Fig. 5 series: FACT GFLOPS vs M, one column per thread count."""
    out = io.StringIO()
    out.write(f"{'M':>9s}")
    for c in curves:
        out.write(f"{f'T={c.threads}':>10s}")
    out.write("\n")
    for i, m in enumerate(curves[0].m_values):
        out.write(f"{m:>9d}")
        for c in curves:
            out.write(f"{c.gflops[i]:>10.1f}")
        out.write("\n")
    return out.getvalue()
