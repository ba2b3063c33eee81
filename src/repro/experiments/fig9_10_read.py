"""Figures 9 and 10: random read I/O cost under updates (§4.4.2).

Figure 9 (a,b,c): ESM average read cost per 2,000-operation window for
mean operation sizes 100 B / 10 KB / 100 KB and leaf sizes 1/4/16/64.
Figure 10 (a,b,c): the same for EOS thresholds 1/4/16/64.
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
class ReadCostResult:
    """Read-cost curves for one scheme, one mean operation size."""

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
                f"Figure {figure}: {self.scheme.upper()} read I/O cost (ms), "
                f"mean op {self.mean_op} bytes"
            ),
        )

    def steady(self, name: str) -> float:
        """Average of a series over the second half of the run."""
        values = self.series[name]
        half = values[len(values) // 2 :] or values
        return sum(half) / len(half)


def run_read_cost(
    scheme: str,
    mean_op: int,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> ReadCostResult:
    """Read-cost curves across the scheme's setting sweep."""
    scale = scale or resolve_scale()
    settings = ESM_LEAF_PAGES if scheme == "esm" else EOS_THRESHOLDS
    label = "leaf" if scheme == "esm" else "T"
    series: dict[str, list[float]] = {}
    marks: list[int] = []
    for setting in settings:
        result = run_random_ops(scheme, setting, mean_op, scale, config)
        series[f"{label}={setting}p"] = result.read_costs_ms()
        marks = result.ops_marks
    return ReadCostResult(
        scheme=scheme, mean_op=mean_op, ops_marks=marks, series=series
    )


def main() -> str:
    """Run and render Figures 9 and 10 (used by the CLI)."""
    scale = resolve_scale()
    parts = []
    for figure, scheme in (("9", "esm"), ("10", "eos")):
        for sub, mean_op in zip("abc", MEAN_OP_SIZES):
            result = run_read_cost(scheme, mean_op, scale)
            parts.append(result.format(f"{figure}.{sub}"))
    return "\n\n".join(parts)

