"""Order statistics used for every reported timing.

Percentiles use the nearest-rank rule on the sorted samples. A percentile
is reported only when at least ten samples lie beyond it, so a p99 needs
1000 samples; ``tail_percentile`` names the highest one a sample count
supports.
"""

import math
from fractions import Fraction

PERCENTILES = (50, 90, 99, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Number of samples ranked after percentile ``p``."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest of PERCENTILES with at least MIN_BEYOND samples beyond it."""
    ok = [p for p in PERCENTILES if n and beyond(n, p) >= MIN_BEYOND]
    return ok[-1] if ok else None


def percentile(samples, p):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]

