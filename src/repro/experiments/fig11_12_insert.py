"""Figures 11 and 12: random insert I/O cost under updates (§4.4.3),
plus the delete-cost series the paper describes but relegates to its
technical report ("the trends mentioned for inserts are also valid for
the delete operations").

Figure 11 (a,b,c): ESM average insert cost per window for mean operation
sizes 100 B / 10 KB / 100 KB and leaf sizes 1/4/16/64.  Figure 12
(a,b,c): the same for EOS thresholds 1/4/16/64.
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
from repro.core.errors import InvalidArgumentError


@dataclasses.dataclass
class UpdateCostResult:
    """Insert- or delete-cost curves for one scheme and mean op size."""

    scheme: str
    mean_op: int
    kind: str  # "insert" or "delete"
    ops_marks: list[int]
    series: dict[str, list[float]]

    def format(self, figure: str) -> str:
        """Render one sub-figure (a/b/c) as text."""
        return format_series(
            "ops",
            self.ops_marks,
            self.series,
            title=(
                f"Figure {figure}: {self.scheme.upper()} {self.kind} I/O "
                f"cost (ms), mean op {self.mean_op} bytes"
            ),
        )

    def steady(self, name: str) -> float:
        """Average of a series over the second half of the run."""
        values = self.series[name]
        half = values[len(values) // 2 :] or values
        return sum(half) / len(half)


def run_update_cost(
    scheme: str,
    mean_op: int,
    kind: str = "insert",
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> UpdateCostResult:
    """Insert (or delete) cost curves across the scheme's setting sweep."""
    if kind not in ("insert", "delete"):
        raise InvalidArgumentError("kind must be 'insert' or 'delete'")
    scale = scale or resolve_scale()
    settings = ESM_LEAF_PAGES if scheme == "esm" else EOS_THRESHOLDS
    label = "leaf" if scheme == "esm" else "T"
    series: dict[str, list[float]] = {}
    marks: list[int] = []
    for setting in settings:
        result = run_random_ops(scheme, setting, mean_op, scale, config)
        values = (
            result.insert_costs_ms()
            if kind == "insert"
            else result.delete_costs_ms()
        )
        series[f"{label}={setting}p"] = values
        marks = result.ops_marks
    return UpdateCostResult(
        scheme=scheme,
        mean_op=mean_op,
        kind=kind,
        ops_marks=marks,
        series=series,
    )


def main() -> str:
    """Run and render Figures 11/12 and the delete-cost series."""
    scale = resolve_scale()
    parts = []
    for figure, scheme in (("11", "esm"), ("12", "eos")):
        for sub, mean_op in zip("abc", MEAN_OP_SIZES):
            result = run_update_cost(scheme, mean_op, "insert", scale)
            parts.append(result.format(f"{figure}.{sub}"))
    for scheme in ("esm", "eos"):
        for mean_op in MEAN_OP_SIZES:
            result = run_update_cost(scheme, mean_op, "delete", scale)
            parts.append(result.format("TR (deletes)"))
    return "\n\n".join(parts)

