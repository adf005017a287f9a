"""Order statistics the benchmark reports.

Latencies are reported as a median and a high percentile.  A high
percentile is only reported when the sample supports it: at least
:data:`MIN_BEYOND` samples must lie beyond it, otherwise a single slow
sample would decide the figure.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles considered when asking which one a sample supports.
CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def rank_of(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` in ``n`` sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``q``."""
    return n - rank_of(n, q)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``."""
    ordered = sorted(values)
    return ordered[rank_of(len(ordered), q) - 1]


def highest_supported(n: int) -> float | None:
    """The highest of :data:`CANDIDATES` with :data:`MIN_BEYOND` samples
    beyond it in a sample of ``n``; None when not even the median is."""
    best = None
    for q in CANDIDATES:
        if n >= 1 and samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def median(values: list[float]) -> float:
    return statistics.median(values)

