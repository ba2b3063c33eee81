"""Descriptive statistics for experiment measurements.

The paper reports window averages; these helpers add the usual
distribution summaries (median, percentiles, spread) for deeper analysis
of per-operation cost samples collected by the workload runner.
"""

from __future__ import annotations

from repro.core.errors import InvalidArgumentError
import dataclasses
import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median (0.0 for an empty sequence)."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise InvalidArgumentError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(
        sum((value - center) ** 2 for value in values) / len(values)
    )


@dataclasses.dataclass(frozen=True)
class Summary:
    """Distribution summary of one sample set."""

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float
    stdev: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute the full summary of a sample set."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=len(values),
        mean=mean(values),
        median=median(values),
        p95=percentile(values, 95.0),
        minimum=min(values),
        maximum=max(values),
        stdev=stdev(values),
    )
