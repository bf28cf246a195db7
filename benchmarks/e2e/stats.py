"""Order statistics the benchmark reports: medians, tails, spreads."""

from __future__ import annotations

import statistics

#: Percentiles a tail may be reported at, lowest first, each with the
#: share of samples beyond it as "one in N" (integers: no rounding).
TAIL_LADDER = ((75.0, 4), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000))

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(nsamples: int) -> float | None:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung has too few: the caller then
    reports the median alone (or the maximum, named as such).
    """
    best = None
    for q, one_in in TAIL_LADDER:
        if nsamples >= MIN_BEYOND * one_in:
            best = q
    return best


def class_balanced_median(samples) -> float:
    """Mean of the per-class medians of ``(class, value)`` samples.

    A workload that alternates cheap and dear inputs has a multi-modal
    latency distribution whose plain median sits on the cliff between
    two modes and flips with a one-sample change in the mix.  Taking the
    median inside each size class first keeps the robustness of a median
    and removes the cliff; with one class it *is* the median.
    """
    by_class: dict = {}
    for cls, value in samples:
        by_class.setdefault(cls, []).append(value)
    if not by_class:
        raise ValueError("median of no samples")
    return statistics.fmean(median(v) for v in by_class.values())


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as the acceptance check computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
