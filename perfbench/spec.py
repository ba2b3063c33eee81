"""The benchmark's declared surface, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of truth
for workload names, metric names, units, directions and regression
bounds; everything here is derived from it so the runner, the comparer
and the tests cannot drift from what the driver checks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Seed used while developing a change, and the one held back so a claim
#: can be re-checked on inputs nobody tuned against.
DEFAULT_SEED = 1992
HELD_OUT_SEED = 2718

#: End-to-end metrics that are pure functions of (code, workload, seed):
#: they belong to the simulated clock and must compare ``==`` between two
#: runs at the same seed, whatever the host does.
EXACT = frozenset({"io_calls_per_op", "pages_per_op", "storage_utilization"})


class Metric(NamedTuple):
    """One declared metric; ``bound`` is ``None`` for per-layer metrics."""

    name: str
    unit: str
    better: str
    bound: float | None = None


def _load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


_SPEC = _load()

RUN_SECONDS: int = _SPEC["run_seconds"]
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in _SPEC["workloads"]}
END_TO_END: dict[str, Metric] = {
    m["name"]: Metric(**m) for m in _SPEC["end_to_end"]
}
PER_LAYER: dict[str, Metric] = {
    m["name"]: Metric(**m) for m in _SPEC["per_layer"]
}


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as the driver takes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
