"""Cross-scheme summary: the comparison of Section 4.6 as one table.

For a chosen mean operation size, measures every scheme's steady-state
behaviour side by side — storage utilization and random read / insert /
delete costs under the 40/30/30 mix, plus the full-object sequential
scan — using the best-practice settings the paper recommends (ESM leaves
and EOS threshold matched to the operation size).  The block-based
baseline of Section 1 is included for context.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.experiments.common import (
    KB,
    Scale,
    build_object,
    make_store,
    memoized,
    resolve_scale,
)
from repro.experiments.random_ops import run_random_ops


@dataclasses.dataclass
class SchemeSummary:
    """Steady-state metrics of one scheme."""

    label: str
    utilization: float
    read_ms: float
    insert_ms: float
    delete_ms: float
    scan_s: float


def summarize_scheme(
    scheme: str,
    setting: int,
    mean_op: int,
    scale: Scale,
    config: SystemConfig = PAPER_CONFIG,
) -> SchemeSummary:
    """Measure one scheme's row of the summary table."""
    result = run_random_ops(scheme, setting, mean_op, scale, config)
    label = {
        "esm": f"ESM ({setting}p leaves)",
        "eos": f"EOS (T={setting})",
        "starburst": "Starburst",
        "blockbased": "block-based",
    }[scheme]
    return SchemeSummary(
        label=label,
        utilization=result.utilizations()[-1],
        read_ms=result.steady_read_ms(),
        insert_ms=result.steady_insert_ms(),
        delete_ms=result.steady_delete_ms(),
        scan_s=scan_seconds(scheme, setting, scale, config),
    )


def compute_scan_seconds(
    scheme: str, setting: int, scale: Scale, config: SystemConfig
) -> float:
    """Measure one scheme's full-object sequential scan (no memoization)."""
    store = make_store(
        scheme, leaf_pages=max(setting, 1), threshold_pages=max(setting, 1),
        config=config,
    )
    oid = build_object(store, scale.object_bytes, 64 * KB)
    before = store.snapshot()
    size = store.size(oid)
    position = 0
    while position < size:
        store.read(oid, position, min(256 * KB, size - position))
        position += 256 * KB
    return store.elapsed_ms(before) / 1000.0


def scan_seconds(
    scheme: str,
    setting: int,
    scale: Scale,
    config: SystemConfig = PAPER_CONFIG,
) -> float:
    """Memoized full-object sequential scan time for the summary table."""
    return memoized(compute_scan_seconds, scheme, setting, scale, config)


def matched_setting(mean_op: int, config: SystemConfig = PAPER_CONFIG) -> int:
    """ESM leaf size / EOS threshold matched to the mean operation size.

    The Section 4.6 recipe: twice the pages an average operation touches,
    but never below 4 pages.
    """
    pages_per_op = max(1, -(-mean_op // config.page_size))
    return max(4, 2 * pages_per_op)


def run_summary(
    mean_op: int = 10 * KB,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> list[SchemeSummary]:
    """All schemes' rows, with settings matched to the operation size."""
    scale = scale or resolve_scale()
    matched = matched_setting(mean_op, config)
    rows = [
        summarize_scheme("esm", matched, mean_op, scale, config),
        summarize_scheme("starburst", 0, mean_op, scale, config),
        summarize_scheme("eos", matched, mean_op, scale, config),
        summarize_scheme("blockbased", 0, mean_op, scale, config),
    ]
    return rows


def format_summary(rows: list[SchemeSummary], mean_op: int) -> str:
    """Render the summary table."""
    table = format_table(
        ("scheme", "utilization", "read ms", "insert ms", "delete ms",
         "scan s"),
        [
            (
                row.label,
                f"{row.utilization:.1%}",
                f"{row.read_ms:.0f}",
                f"{row.insert_ms:.0f}",
                f"{row.delete_ms:.0f}",
                f"{row.scan_s:.1f}",
            )
            for row in rows
        ],
    )
    return (
        f"Section 4.6 summary: steady state with {mean_op} byte "
        f"operations\n{table}"
    )


def main() -> str:
    """Run and render the summary (used by the CLI)."""
    mean_op = 10 * KB
    return format_summary(run_summary(mean_op), mean_op)

