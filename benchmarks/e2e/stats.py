"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * q))]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0
