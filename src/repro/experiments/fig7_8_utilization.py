"""Figures 7 and 8: storage utilization under random updates (§4.4.1).

Figure 7 (a,b,c): ESM utilization for mean operation sizes 100 B, 10 KB,
and 100 KB with leaf sizes 1/4/16/64 pages.  Figure 8 (a,b,c): the same
for EOS with segment size thresholds 1/4/16/64.  Starburst is omitted
because it unconditionally achieves the best possible utilization (it
completely reorganizes the affected segments after each update).
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_series
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.experiments.common import (
    EOS_THRESHOLDS,
    ESM_LEAF_PAGES,
    MEAN_OP_SIZES,
    Scale,
    resolve_scale,
)
from repro.experiments.random_ops import run_random_ops


@dataclasses.dataclass
class UtilizationResult:
    """Utilization curves for one scheme, one mean operation size."""

    scheme: str
    mean_op: int
    ops_marks: list[int]
    series: dict[str, list[float]]

    def format(self, figure: str) -> str:
        """Render one sub-figure (a/b/c) as text."""
        return format_series(
            "ops",
            self.ops_marks,
            self.series,
            title=(
                f"Figure {figure}: {self.scheme.upper()} storage utilization, "
                f"mean op {self.mean_op} bytes"
            ),
        )

    def final(self, name: str) -> float:
        """Utilization of a series at the last mark."""
        return self.series[name][-1]


def run_utilization(
    scheme: str,
    mean_op: int,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> UtilizationResult:
    """Utilization curves across the scheme's setting sweep."""
    scale = scale or resolve_scale()
    settings = ESM_LEAF_PAGES if scheme == "esm" else EOS_THRESHOLDS
    label = "leaf" if scheme == "esm" else "T"
    series: dict[str, list[float]] = {}
    marks: list[int] = []
    for setting in settings:
        result = run_random_ops(scheme, setting, mean_op, scale, config)
        series[f"{label}={setting}p"] = result.utilizations()
        marks = result.ops_marks
    return UtilizationResult(
        scheme=scheme, mean_op=mean_op, ops_marks=marks, series=series
    )


def main() -> str:
    """Run and render Figures 7 and 8 (used by the CLI)."""
    scale = resolve_scale()
    parts = []
    for figure, scheme in (("7", "esm"), ("8", "eos")):
        for sub, mean_op in zip("abc", MEAN_OP_SIZES):
            result = run_utilization(scheme, mean_op, scale)
            parts.append(result.format(f"{figure}.{sub}"))
    return "\n\n".join(parts)

