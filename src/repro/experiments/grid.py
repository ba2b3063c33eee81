"""The experiment grid: every figure/table decomposed into work points.

Each experiment in the registry is a sweep over (scheme × setting ×
operation-size / append-size) points.  This module makes the loop
structure explicit so the runner (:mod:`repro.experiments.parallel`) can
compute the points in grid order and prime the one result table
(:func:`repro.experiments.common.memoized`) with the results before the
(deterministic) assembly pass renders the reports.  The points of
Figures 5-12 come from the curves :mod:`repro.experiments.figures`
renders (``SIZE_CURVES``, ``SETTING_CURVES``), in the order it reads them.

A :class:`GridPoint` is a frozen value object.  Seeding is per
point: every point's workload generator is seeded with the fixed
:data:`~repro.experiments.random_ops.WORKLOAD_SEED` inside the point's own
computation, so results are independent of the order points run in.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.experiments.common import KB, MEAN_OP_SIZES, Scale, resolve_scale
from repro.experiments.figures import (
    METRIC_FIGURES,
    SETTING_CURVES,
    SIZE_CURVES,
    SIZE_FIGURES,
    SizeFigure,
)
from repro.experiments.summary import matched_setting

#: The kinds of work a grid point can denote.
POINT_KINDS = (
    "random-ops", "build", "scan", "scaling", "summary-scan", "shard",
)

#: Mean operation size used by the Section 4.6 summary table.
SUMMARY_MEAN_OP = 10 * KB


@dataclasses.dataclass(frozen=True)
class GridPoint:
    """One unit of experiment work: a frozen, hashable value.

    ``setting`` is the ESM leaf size or EOS segment-size threshold in
    pages (0 where the scheme has no such knob); ``mean_op`` applies to
    random-update points and ``append_kb`` to build/scan points.
    """

    kind: str
    scheme: str
    scale_name: str
    setting: int = 0
    mean_op: int = 0
    append_kb: int = 0
    config: SystemConfig = PAPER_CONFIG


def _metric_points(scale: Scale) -> list[GridPoint]:
    """The shared ESM/EOS random-update sweep behind Figures 7-12."""
    return [
        GridPoint(
            kind="random-ops",
            scheme=scheme,
            scale_name=scale.name,
            setting=setting,
            mean_op=mean_op,
        )
        for scheme, (_label, settings) in SETTING_CURVES.items()
        for mean_op in MEAN_OP_SIZES
        for setting in settings
    ]


def _starburst_points(scale: Scale) -> list[GridPoint]:
    """The Starburst random-update runs behind Tables 2-3."""
    return [
        GridPoint(
            kind="random-ops",
            scheme="starburst",
            scale_name=scale.name,
            setting=0,
            mean_op=mean_op,
        )
        for mean_op in MEAN_OP_SIZES
    ]


def _size_points(figure: SizeFigure, scale: Scale) -> list[GridPoint]:
    """Build or scan sweeps of Figures 5/6: curves × append sizes."""
    return [
        GridPoint(
            kind=figure.kind,
            scheme=scheme,
            scale_name=scale.name,
            setting=leaf_pages,
            append_kb=kb,
        )
        for scheme, leaf_pages in SIZE_CURVES.values()
        for kb in scale.append_sizes_kb
    ]


def _scaling_points(scale: Scale) -> list[GridPoint]:
    return [
        GridPoint(kind="scaling", scheme=scheme, scale_name=scale.name)
        for scheme in ("esm", "starburst", "eos")
    ]


def _shard_points(scale: Scale) -> list[GridPoint]:
    """The shard-count sweep (``setting`` carries the shard count)."""
    from repro.experiments.shard_scaling import SHARD_COUNTS

    return [
        GridPoint(
            kind="shard",
            scheme=scheme,
            scale_name=scale.name,
            setting=shards,
        )
        for scheme in ("esm", "starburst", "eos")
        for shards in SHARD_COUNTS
    ]


def _summary_points(scale: Scale) -> list[GridPoint]:
    """Random-update runs plus full-object scans of the summary table."""
    matched = matched_setting(SUMMARY_MEAN_OP)
    schemes = (
        ("esm", matched),
        ("starburst", 0),
        ("eos", matched),
        ("blockbased", 0),
    )
    points = [
        GridPoint(
            kind="random-ops",
            scheme=scheme,
            scale_name=scale.name,
            setting=setting,
            mean_op=SUMMARY_MEAN_OP,
        )
        for scheme, setting in schemes
    ]
    points.extend(
        GridPoint(
            kind="summary-scan",
            scheme=scheme,
            scale_name=scale.name,
            setting=setting,
        )
        for scheme, setting in schemes
    )
    return points


#: experiment name -> grid builder.  Every registry experiment appears
#: here; ``table1`` legitimately has an empty grid (it only prints the
#: configuration).
GRID_BUILDERS: dict[str, Callable[[Scale], list[GridPoint]]] = {
    "table1": lambda scale: [],
    "tables23": _starburst_points,
    **{name: partial(_size_points, fig) for name, fig in SIZE_FIGURES.items()},
    **dict.fromkeys(METRIC_FIGURES, _metric_points),
    "scaling": _scaling_points,
    "shards": _shard_points,
    "summary": _summary_points,
}


def grid_for(name: str, scale: Scale | None = None) -> list[GridPoint]:
    """The grid points one experiment will consume."""
    scale = scale or resolve_scale()
    try:
        builder = GRID_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(GRID_BUILDERS))
        raise InvalidArgumentError(
            f"unknown experiment {name!r}; known: {known}"
        ) from None
    return builder(scale)


def full_grid(names: list[str], scale: Scale | None = None) -> list[GridPoint]:
    """The deduplicated union of several experiments' grids.

    Points shared between experiments (Figures 7-12 all consume the same
    random-update runs) appear once, in first-seen order, so the grid
    runner computes each underlying run exactly once — mirroring what the
    result table achieves for direct ``run_*`` calls.
    """
    scale = scale or resolve_scale()
    seen: set[GridPoint] = set()
    points: list[GridPoint] = []
    for name in names:
        for point in grid_for(name, scale):
            if point not in seen:
                seen.add(point)
                points.append(point)
    return points
