"""Figure 5: object creation time vs. append size (Section 4.2).

Builds an object by successively appending fixed-size chunks, for every
append size in the paper's sweep, with ESM leaf sizes of 1/4/16/64 pages
and the (shared) Starburst/EOS growth pattern.  Reports seconds of
simulated I/O per build.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_series
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.experiments.common import (
    ESM_LEAF_PAGES,
    KB,
    Scale,
    build_object,
    format_object_size,
    make_store,
    memoized,
    resolve_scale,
)


@dataclasses.dataclass
class BuildTimeResult:
    """Build-time series for one object size."""

    object_bytes: int
    append_sizes_kb: tuple[int, ...]
    #: series name -> seconds per append size
    series: dict[str, list[float]]

    def format(self) -> str:
        """Render as the textual equivalent of Figure 5."""
        return format_series(
            "append KB",
            list(self.append_sizes_kb),
            self.series,
            title=(
                f"Figure 5: {format_object_size(self.object_bytes)} object "
                "creation time (seconds of simulated I/O)"
            ),
        )

    def format_plot(self) -> str:
        """Render as an ASCII chart (log-scaled like the paper's axes)."""
        from repro.analysis.plot import ascii_plot

        return ascii_plot(
            list(self.append_sizes_kb),
            self.series,
            title=f"Figure 5: {format_object_size(self.object_bytes)} build time",
            y_label="seconds",
            log_y=True,
        )


def compute_build_time(
    scheme: str,
    append_kb: int,
    object_bytes: int,
    leaf_pages: int,
    config: SystemConfig,
) -> float:
    """Measure one build point (no memoization)."""
    store = make_store(scheme, leaf_pages=leaf_pages, config=config)
    before = store.snapshot()
    build_object(store, object_bytes, append_kb * KB)
    return store.elapsed_ms(before) / 1000.0


def build_time_seconds(
    scheme: str,
    append_kb: int,
    object_bytes: int,
    *,
    leaf_pages: int = 4,
    config: SystemConfig = PAPER_CONFIG,
) -> float:
    """Simulated seconds to build one object with fixed-size appends."""
    return memoized(
        compute_build_time, scheme, append_kb, object_bytes, leaf_pages, config
    )


def run_fig5(
    scale: Scale | None = None, config: SystemConfig = PAPER_CONFIG
) -> BuildTimeResult:
    """Run the full Figure 5 sweep at the given scale."""
    scale = scale or resolve_scale()
    series: dict[str, list[float]] = {}
    for leaf_pages in ESM_LEAF_PAGES:
        name = f"ESM {leaf_pages}p"
        series[name] = [
            build_time_seconds(
                "esm", kb, scale.object_bytes,
                leaf_pages=leaf_pages, config=config,
            )
            for kb in scale.append_sizes_kb
        ]
    series["Starburst/EOS"] = [
        build_time_seconds("starburst", kb, scale.object_bytes, config=config)
        for kb in scale.append_sizes_kb
    ]
    return BuildTimeResult(
        object_bytes=scale.object_bytes,
        append_sizes_kb=scale.append_sizes_kb,
        series=series,
    )


def main() -> str:
    """Run and render the experiment (used by the CLI)."""
    return run_fig5().format()

