"""Terminal (ASCII) chart rendering for the paper's figures.

No plotting stack is assumed offline, so the CLI and examples render the
regenerated figures as text: multi-series line charts on a character
canvas with axis scales and a legend.  Good enough to *see* Fig. 5's
thread fan, Fig. 7's two regimes and Fig. 8's near-ideal scaling.
"""

from __future__ import annotations

import math
from typing import Sequence

_MARKS = "*o+x#@%&"


def _scale(value: float, lo: float, hi: float, cells: int) -> int:
    if hi <= lo:
        return 0
    t = (value - lo) / (hi - lo)
    return min(cells - 1, max(0, int(round(t * (cells - 1)))))


def line_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 20,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
) -> str:
    """Render labeled (xs, ys) series on one character canvas.

    Args:
        series: Mapping from legend label to ``(xs, ys)`` of equal length.
        width: Plot-area columns.
        height: Plot-area rows.
        title: Optional heading.
        xlabel: X-axis caption.
        ylabel: Y-axis caption (printed above the axis).
        logx: Place x positions on a log scale (node counts, sizes).
    """
    if not series:
        raise ValueError("no series to plot")
    pts: list[tuple[float, float]] = []
    for xs, ys in series.values():
        if len(xs) != len(ys):
            raise ValueError("series xs and ys must have equal length")
        pts.extend(zip(xs, ys))
    if not pts:
        raise ValueError("series are empty")

    def fx(x: float) -> float:
        return math.log(x) if logx else x

    xlo = min(fx(x) for x, _ in pts)
    xhi = max(fx(x) for x, _ in pts)
    ylo = min(y for _, y in pts)
    yhi = max(y for _, y in pts)
    if ylo > 0 and ylo / max(yhi, 1e-300) < 0.5:
        ylo = 0.0  # anchor at zero unless the data is a narrow band

    grid = [[" "] * width for _ in range(height)]
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        mark = _MARKS[idx % len(_MARKS)]
        prev = None
        for x, y in zip(xs, ys):
            col = _scale(fx(x), xlo, xhi, width)
            row = height - 1 - _scale(y, ylo, yhi, height)
            if prev is not None:
                pcol, prow = prev
                steps = max(abs(col - pcol), abs(row - prow))
                for s in range(1, steps):
                    icol = pcol + round((col - pcol) * s / steps)
                    irow = prow + round((row - prow) * s / steps)
                    if grid[irow][icol] == " ":
                        grid[irow][icol] = "."
            grid[row][col] = mark
            prev = (col, row)

    lines = []
    if title:
        lines.append(title.center(width + 12))
    if ylabel:
        lines.append(ylabel)
    for i, row in enumerate(grid):
        if i == 0:
            tag = f"{yhi:10.3g} "
        elif i == height - 1:
            tag = f"{ylo:10.3g} "
        else:
            tag = " " * 11
        lines.append(tag + "|" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    xlo_label = f"{math.exp(xlo) if logx else xlo:.3g}"
    xhi_label = f"{math.exp(xhi) if logx else xhi:.3g}"
    axis = " " * 12 + xlo_label + " " * max(
        1, width - len(xlo_label) - len(xhi_label)
    ) + xhi_label
    lines.append(axis)
    if xlabel:
        lines.append(xlabel.center(width + 12))
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {label}" for i, label in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines) + "\n"


def fig7_chart(report, width: int = 72, height: int = 18) -> str:
    """Fig. 7 as ASCII: per-iteration total vs GPU-active time (ms)."""
    ks = report.k.tolist()
    total = (report.time * 1e3).tolist()
    gpu = (report.gpu_active * 1e3).tolist()
    stacked = ((report.fact + report.mpi + report.transfer) * 1e3).tolist()
    # "total" drawn last: early on it coincides with "gpu active" (that is
    # the hidden regime) and must stay visible on top.
    return line_chart(
        {"gpu active": (ks, gpu), "fact+mpi+xfer": (ks, stacked),
         "total": (ks, total)},
        width=width,
        height=height,
        title=f"Fig.7: per-iteration time, N={report.cfg.n} NB={report.cfg.nb}",
        xlabel="iteration",
        ylabel="ms",
    )


def fig8_chart(points, width: int = 64, height: int = 16) -> str:
    """Fig. 8 as ASCII: measured vs ideal score over node counts."""
    nodes = [p.nnodes for p in points]
    measured = [p.tflops / 1e3 for p in points]
    base = points[0].tflops / points[0].nnodes
    ideal = [base * n / 1e3 for n in nodes]
    return line_chart(
        {"measured": (nodes, measured), "ideal": (nodes, ideal)},
        width=width,
        height=height,
        title="Fig.8: weak scaling (PFLOPS)",
        xlabel="nodes (log)",
        ylabel="PFLOPS",
        logx=True,
    )


def fig5_chart(curves, width: int = 64, height: int = 16) -> str:
    """Fig. 5 as ASCII: FACT GFLOPS vs M for each thread count."""
    series = {
        f"T={c.threads}": (list(map(float, c.m_values)), c.gflops)
        for c in curves
        if c.threads in (1, 4, 16, 64)
    }
    return line_chart(
        series,
        width=width,
        height=height,
        title="Fig.5: FACT performance (GFLOPS), NB=512",
        xlabel="panel rows M (log)",
        ylabel="GFLOPS",
        logx=True,
    )
