"""Order statistics of op samples.

p50 and the tail come from one sample list.  The tail is the nearest-rank
value at a fixed percentile p >= 50, so it is never below the median, and a
run is long enough only when at least ``MIN_BEYOND`` samples lie above that
rank.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def tail_rank(n: int, pct: float) -> int:
    """0-based nearest-rank index of the pct-th percentile of n samples."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def beyond(n: int, pct: float) -> int:
    """Number of samples ranked above the pct-th percentile."""
    return n - 1 - tail_rank(n, pct)


def enough_samples(n: int, pct: float) -> bool:
    return n > 0 and beyond(n, pct) >= MIN_BEYOND


def p50_and_tail(samples, pct: float) -> tuple[float, float]:
    """Median and nearest-rank pct-th percentile of one sample list."""
    if pct < 50:
        raise ValueError("the tail percentile must be at least 50")
    ordered = sorted(samples)
    if not enough_samples(len(ordered), pct):
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {MIN_BEYOND} beyond p{pct}"
        )
    return statistics.median(ordered), ordered[tail_rank(len(ordered), pct)]


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median) of a list."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
