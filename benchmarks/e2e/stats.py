"""Exact order statistics from raw samples.

Every percentile the benchmark prints is an actual sample value (the
nearest-rank definition), never a histogram bucket edge, and travels with
its sample count and the number of samples strictly beyond it, so a
reader can tell whether a tail percentile is supported by the data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    q: float
    value: float
    count: int
    beyond: int


def percentile(samples, q: float) -> Percentile:
    """Nearest-rank ``q``-quantile: the ceil(q*n)-th smallest sample."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    value = ordered[max(math.ceil(q * len(ordered)), 1) - 1]
    beyond = sum(1 for sample in ordered if sample > value)
    return Percentile(q, value, len(ordered), beyond)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
