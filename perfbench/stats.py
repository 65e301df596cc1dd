"""Order statistics shared by the runner and the steadiness report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
TAIL_FLOOR_TENTHS = 9  # p90


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n) of the per-command tail.

    The tail is the highest percentile that still has ten samples beyond it,
    but never lower than p90: with n sorted samples it is the k-th smallest,
    k = max(n - 10, ceil(0.9 n)), at percentile 100 k / n.  From n = 100 on
    exactly ten samples lie above it.  A shorter run has too few samples for
    ten of them to lie beyond p90; it keeps p90 by nearest rank, so the tail
    still sits among the slowest commands instead of falling below the
    median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = max(n - TAIL_BEYOND, -(-TAIL_FLOOR_TENTHS * n // 10))
    return xs[k - 1], 100.0 * k / n, n


def spread(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) with quartiles from statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")
