"""Deterministic metrics: counters, gauges, and fixed-bucket histograms.

The registry is the numeric side of :mod:`repro.obs`: where the trace
records *what happened in what order*, the registry accumulates *how much
of it happened*.  Three shapes cover the reproduction's needs:

* **counters** — monotonically increasing totals (physical calls, pages,
  retries, splits, evictions, fault events);
* **gauges** — point-in-time values sampled at export (pool hit ratio);
* **histograms** — distributions over fixed, configuration-independent
  bucket bounds (per-operation simulated cost in milliseconds).

Everything is built for determinism.  There are no wall-clock samples
and bucket bounds are frozen module constants, so every value is a pure
function of what was observed, in order.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import InvalidArgumentError

#: Histogram bucket upper bounds in milliseconds of simulated I/O time.
#: One fixed ladder for every histogram keeps registries exactly
#: comparable across runs; the paper's single-call costs
#: start at seek + 1 page = 37 ms, and the largest multi-segment
#: operations run to tens of simulated seconds.
DEFAULT_BUCKET_BOUNDS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
)


@dataclasses.dataclass
class Histogram:
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``counts[i]`` holds observations ``<= bounds[i]``; the final slot
    (``counts[len(bounds)]``) is the overflow bucket.  ``sum_value`` and
    ``count`` allow exact mean reconstruction.
    """

    bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS_MS
    counts: list[int] = dataclasses.field(default_factory=list)
    count: int = 0
    sum_value: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise InvalidArgumentError(
                f"histogram with {len(self.bounds)} bounds needs "
                f"{len(self.bounds) + 1} buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.sum_value += value

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum_value,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Histogram":
        """Rebuild a histogram exported by :meth:`to_dict`."""
        return cls(
            bounds=tuple(data["bounds"]),  # type: ignore[arg-type]
            counts=list(data["counts"]),  # type: ignore[call-overload]
            count=int(data["count"]),  # type: ignore[arg-type]
            sum_value=float(data["sum"]),  # type: ignore[arg-type]
        )


class MetricsRegistry:
    """Named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Increment a counter (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to a point-in-time value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation with sorted, stable key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry exported by :meth:`to_dict`."""
        registry = cls()
        registry.counters.update(data.get("counters", {}))  # type: ignore[arg-type]
        registry.gauges.update(data.get("gauges", {}))  # type: ignore[arg-type]
        for name, payload in data.get("histograms", {}).items():  # type: ignore[union-attr]
            registry.histograms[name] = Histogram.from_dict(payload)
        return registry
