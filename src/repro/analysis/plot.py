"""ASCII line plots: terminal renderings of the paper's figures.

The experiment harness prints figure data as tables; these helpers add a
quick visual rendering so the shapes (crossovers, plateaus, the Figure 5
sawtooth) are visible in a terminal without any plotting dependency.
"""

from __future__ import annotations

from repro.core.errors import InvalidArgumentError
import math
from typing import Mapping, Sequence

#: Marker characters assigned to series in order.
_MARKERS = "ox+*#@%&"


def ascii_plot(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 68,
    height: int = 18,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render named series as an ASCII scatter/line chart.

    X positions use the *index* of each sample (the paper's figures use
    roughly logarithmic x spacing, which index position approximates);
    the y axis is logarithmic, like the paper's, or linear when a value
    is not positive (which no logarithm places).
    """
    if not xs or not series:
        raise InvalidArgumentError("nothing to plot")
    values = [
        v for ys in series.values() for v in ys if v is not None
    ]
    if not values:
        raise InvalidArgumentError("series contain no values")
    y_min, y_max = min(values), max(values)
    transform = _make_transform(y_min, y_max)

    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), _MARKERS):
        for index, value in enumerate(ys):
            if value is None:
                continue
            col = round(index * (width - 1) / max(1, len(xs) - 1))
            row = height - 1 - round(transform(value) * (height - 1))
            grid[row][col] = marker

    left = max(len(_fmt(y_max)), len(_fmt(y_min)))
    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = _fmt(y_max)
        elif row_index == height - 1:
            label = _fmt(y_min)
        else:
            label = ""
        lines.append(f"{label.rjust(left)} |{''.join(row)}|")
    axis = f"{'':>{left}} +{'-' * width}+"
    lines.append(axis)
    x_line = (
        f"{'':>{left}}  {str(xs[0]):<{width // 2}}"
        f"{str(xs[-1]):>{width - width // 2}}"
    )
    lines.append(x_line)
    legend = "  ".join(
        f"{marker}={name}" for (name, _ys), marker in zip(
            series.items(), _MARKERS
        )
    )
    lines.append(f"{'':>{left}}  {legend}")
    if y_label:
        lines.append(f"{'':>{left}}  y: {y_label}"
                     + (" (log scale)" if y_min > 0 else ""))
    return "\n".join(lines)


def _make_transform(y_min: float, y_max: float):
    """Map a value to [0, 1]: by its logarithm when every value is
    positive, else linearly."""
    if y_min > 0:
        lo, hi = math.log10(y_min), math.log10(y_max)

        def transform(value: float) -> float:
            if hi == lo:
                return 0.5
            return (math.log10(value) - lo) / (hi - lo)

        return transform

    def transform(value: float) -> float:
        if y_max == y_min:
            return 0.5
        return (value - y_min) / (y_max - y_min)

    return transform


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"
