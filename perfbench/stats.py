"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics


def percentile(values, p: int) -> float:
    """The p-th percentile (inclusive method); 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
