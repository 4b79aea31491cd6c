"""Order statistics for the end-to-end benchmark.

Timings are summarized by their median and quartiles (as Python's
``statistics.quantiles(values, n=4)`` gives them) and, for tails, by
the highest percentile the sample supports: one with at least
:data:`TAIL_BEYOND` samples beyond it.  Every summary states its n.
"""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile needs beyond it before it is reported.
TAIL_BEYOND = 10

#: Percentiles the tail rule chooses from, lowest first.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports(n: int, p: float, beyond: int = TAIL_BEYOND) -> bool:
    """True when ``n`` samples leave at least ``beyond`` above the
    ``p``-th percentile (p90 needs n >= 100)."""
    return n * (100.0 - p) / 100.0 >= beyond - 1e-9


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> dict | None:
    """The highest grid percentile with ``beyond`` samples past it.

    Returns ``{"p", "value", "n"}``, or ``None`` when even the median
    is unsupported (fewer than ``2 * beyond`` samples).
    """
    values = list(values)
    best = None
    for p in TAIL_GRID:
        if supports(len(values), p, beyond):
            best = p
    if best is None:
        return None
    return {"p": best, "value": percentile(values, best), "n": len(values)}


def summary(values) -> dict:
    """Median, quartiles, spread, supported tail, and n of a sample."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "spread": spread(values), "tail": tail_percentile(values)}
