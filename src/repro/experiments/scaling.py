"""Object-size scaling: the paper's 100 MB extrapolations (§4.2, §4.4.3).

Two claims the paper states without graphs:

* "the cost of creating an object grows linearly with the object size.
  For instance, to obtain the time required to build a 100M-byte object,
  just multiply the numbers in Figure 5 by 10."
* "the update cost in both ESM and EOS is independent of the object
  size, while in Starburst this cost depends directly on the object
  size.  For 100M-byte object ... it rises to approximately 2.5 minutes
  in Starburst."

This experiment measures build time and a mid-object insert across a
geometric sweep of object sizes and reports the scaling exponents.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.report import format_table
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.payload import SizedPayload
from repro.experiments.common import (
    KB,
    Scale,
    build_object,
    format_object_size,
    make_store,
    memoized,
    resolve_scale,
)


@dataclasses.dataclass
class ScalingResult:
    """Build and insert costs across object sizes for one scheme."""

    scheme: str
    object_sizes: list[int]
    build_s: list[float]
    insert_ms: list[float]

    def growth_exponent(self, values: list[float]) -> float:
        """Least-squares slope of log(cost) vs log(size).

        1.0 means linear scaling, 0.0 means size-independent.
        """
        xs = [math.log(size) for size in self.object_sizes]
        ys = [math.log(max(value, 1e-9)) for value in values]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        covariance = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        variance = sum((x - mean_x) ** 2 for x in xs)
        return covariance / variance if variance else 0.0

    @property
    def build_exponent(self) -> float:
        """Scaling exponent of the build time."""
        return self.growth_exponent(self.build_s)

    @property
    def insert_exponent(self) -> float:
        """Scaling exponent of a mid-object insert's cost."""
        return self.growth_exponent(self.insert_ms)


#: Default sweep depth (size, 2x, 4x) and probe insert size.
DEFAULT_STEPS = 3
DEFAULT_INSERT_BYTES = 10 * KB


def run_scaling(
    scheme: str,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
    *,
    steps: int = DEFAULT_STEPS,
    insert_bytes: int = DEFAULT_INSERT_BYTES,
) -> ScalingResult:
    """Run (or fetch the memoized) scaling sweep for one scheme."""
    scale = scale or resolve_scale()
    return memoized(
        compute_scaling, scheme, scale, config, steps, insert_bytes
    )


def compute_scaling(
    scheme: str,
    scale: Scale,
    config: SystemConfig = PAPER_CONFIG,
    steps: int = DEFAULT_STEPS,
    insert_bytes: int = DEFAULT_INSERT_BYTES,
) -> ScalingResult:
    """Measure build + insert costs at size, 2x size, 4x size, ..."""
    sizes = [scale.object_bytes << step for step in range(steps)]
    build_s: list[float] = []
    insert_ms: list[float] = []
    for size in sizes:
        store = make_store(scheme, leaf_pages=4, threshold_pages=4,
                           config=config)
        before = store.snapshot()
        oid = build_object(store, size, 64 * KB)
        build_s.append(store.elapsed_ms(before) / 1000.0)
        # Average a few mid-object inserts at deterministic offsets.
        before = store.snapshot()
        probes = 5
        for index in range(probes):
            offset = (index * 2654435761) % store.size(oid)
            store.insert(oid, offset, SizedPayload(insert_bytes))
        insert_ms.append(store.elapsed_ms(before) / probes)
    return ScalingResult(
        scheme=scheme,
        object_sizes=sizes,
        build_s=build_s,
        insert_ms=insert_ms,
    )


def format_scaling(results: list[ScalingResult]) -> str:
    """Render the scaling table with fitted exponents."""
    rows = []
    for result in results:
        rows.append(
            (
                result.scheme,
                " / ".join(f"{v:.1f}" for v in result.build_s),
                f"{result.build_exponent:.2f}",
                " / ".join(f"{v:.0f}" for v in result.insert_ms),
                f"{result.insert_exponent:.2f}",
            )
        )
    sizes = " / ".join(
        format_object_size(size) for size in results[0].object_sizes
    )
    return (
        f"Scaling with object size ({sizes})\n"
        + format_table(
            ("scheme", "build s", "build exp", "insert ms", "insert exp"),
            rows,
        )
        + "\nbuild exp ~ 1.0 = linear; insert exp ~ 0.0 = size-independent"
    )


def main() -> str:
    """Run and render the scaling experiment (used by the CLI)."""
    results = [run_scaling(s) for s in ("esm", "starburst", "eos")]
    return format_scaling(results)

