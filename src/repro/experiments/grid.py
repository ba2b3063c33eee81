"""The experiment grid: every figure/table decomposed into work points.

Each experiment in the registry is a sweep over (scheme × setting ×
operation-size / append-size) points.  Historically the figure runners
looped over those points internally; this module makes the loop structure
explicit so the runner (:mod:`repro.experiments.parallel`) can compute
the points — in-process or across worker processes — and prime the one
result table (:func:`repro.experiments.common.memoized`) with the
results before the (serial, deterministic) assembly pass renders the
reports.

A :class:`GridPoint` is a frozen, picklable value object.  Seeding is per
point: every point's workload generator is seeded with the fixed
:data:`~repro.experiments.random_ops.WORKLOAD_SEED` inside the point's own
computation, so results are independent of scheduling order and of which
process computes them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.experiments.common import (
    EOS_THRESHOLDS,
    ESM_LEAF_PAGES,
    KB,
    MEAN_OP_SIZES,
    Scale,
    resolve_scale,
)
from repro.experiments.summary import matched_setting

#: The kinds of work a grid point can denote.
POINT_KINDS = (
    "random-ops", "build", "scan", "scaling", "summary-scan", "shard",
)

#: Mean operation size used by the Section 4.6 summary table.
SUMMARY_MEAN_OP = 10 * KB

#: Default ESM leaf size (pages) used where a sweep does not vary it.
DEFAULT_LEAF_PAGES = 4


@dataclasses.dataclass(frozen=True)
class GridPoint:
    """One unit of experiment work, safe to send to a worker process.

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


def _random_update_points(scale: Scale) -> list[GridPoint]:
    """The shared ESM/EOS random-update sweep behind Figures 7-12."""
    points = []
    for scheme, settings in (("esm", ESM_LEAF_PAGES), ("eos", EOS_THRESHOLDS)):
        for mean_op in MEAN_OP_SIZES:
            for setting in settings:
                points.append(
                    GridPoint(
                        kind="random-ops",
                        scheme=scheme,
                        scale_name=scale.name,
                        setting=setting,
                        mean_op=mean_op,
                    )
                )
    return points


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


def _sweep_points(kind: str, scale: Scale) -> list[GridPoint]:
    """Build or scan sweeps of Figures 5/6: leaf sizes × append sizes."""
    points = []
    for leaf_pages in ESM_LEAF_PAGES:
        for kb in scale.append_sizes_kb:
            points.append(
                GridPoint(
                    kind=kind,
                    scheme="esm",
                    scale_name=scale.name,
                    setting=leaf_pages,
                    append_kb=kb,
                )
            )
    for kb in scale.append_sizes_kb:
        points.append(
            GridPoint(
                kind=kind,
                scheme="starburst",
                scale_name=scale.name,
                setting=DEFAULT_LEAF_PAGES,
                append_kb=kb,
            )
        )
    return points


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
    "fig5": lambda scale: _sweep_points("build", scale),
    "fig6": lambda scale: _sweep_points("scan", scale),
    "fig7-8": _random_update_points,
    "fig9-10": _random_update_points,
    "fig11-12": _random_update_points,
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
    random-update runs) appear once, in first-seen order, so the parallel
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
