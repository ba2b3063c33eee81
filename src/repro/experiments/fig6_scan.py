"""Figure 6: sequential scan time vs. scan size (Section 4.3).

After building the object with n-byte appends, it is scanned from the
beginning to the end in n-byte chunks.  With a 1 KB/ms transfer rate the
best possible time for 10 MB is about 10 seconds.
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
class ScanTimeResult:
    """Sequential-scan series for one object size."""

    object_bytes: int
    scan_sizes_kb: tuple[int, ...]
    series: dict[str, list[float]]

    def format(self) -> str:
        """Render as the textual equivalent of Figure 6."""
        return format_series(
            "scan KB",
            list(self.scan_sizes_kb),
            self.series,
            title=(
                f"Figure 6: {format_object_size(self.object_bytes)} sequential "
                "scan time (seconds of simulated I/O)"
            ),
        )

    def format_plot(self) -> str:
        """Render as an ASCII chart (log-scaled like the paper's axes)."""
        from repro.analysis.plot import ascii_plot

        return ascii_plot(
            list(self.scan_sizes_kb),
            self.series,
            title=f"Figure 6: {format_object_size(self.object_bytes)} scan time",
            y_label="seconds",
            log_y=True,
        )


def compute_scan_time(
    scheme: str,
    scan_kb: int,
    object_bytes: int,
    leaf_pages: int,
    config: SystemConfig,
) -> float:
    """Measure one scan point (no memoization)."""
    store = make_store(scheme, leaf_pages=leaf_pages, config=config)
    oid = build_object(store, object_bytes, scan_kb * KB)
    before = store.snapshot()
    chunk = scan_kb * KB
    position = 0
    size = store.size(oid)
    while position < size:
        take = min(chunk, size - position)
        store.read(oid, position, take)
        position += take
    return store.elapsed_ms(before) / 1000.0


def scan_time_seconds(
    scheme: str,
    scan_kb: int,
    object_bytes: int,
    *,
    leaf_pages: int = 4,
    config: SystemConfig = PAPER_CONFIG,
) -> float:
    """Simulated seconds to scan an object built with same-size appends.

    "The n-byte scan was performed on the object created by n-byte
    appends" — slightly important for Starburst/EOS, whose structure
    depends on the size of the first append.
    """
    return memoized(
        compute_scan_time, scheme, scan_kb, object_bytes, leaf_pages, config
    )


def run_fig6(
    scale: Scale | None = None, config: SystemConfig = PAPER_CONFIG
) -> ScanTimeResult:
    """Run the full Figure 6 sweep at the given scale."""
    scale = scale or resolve_scale()
    series: dict[str, list[float]] = {}
    for leaf_pages in ESM_LEAF_PAGES:
        name = f"ESM {leaf_pages}p"
        series[name] = [
            scan_time_seconds(
                "esm", kb, scale.object_bytes,
                leaf_pages=leaf_pages, config=config,
            )
            for kb in scale.append_sizes_kb
        ]
    series["Starburst/EOS"] = [
        scan_time_seconds("starburst", kb, scale.object_bytes, config=config)
        for kb in scale.append_sizes_kb
    ]
    return ScanTimeResult(
        object_bytes=scale.object_bytes,
        scan_sizes_kb=scale.append_sizes_kb,
        series=series,
    )


def main() -> str:
    """Run and render the experiment (used by the CLI)."""
    return run_fig6().format()

