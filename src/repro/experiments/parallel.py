"""Grid runner: compute the experiment grid, then render from the table.

Every :class:`~repro.experiments.grid.GridPoint` builds its own simulated
disk, cost ledger, and workload generator (seeded per point with the
fixed :data:`~repro.experiments.random_ops.WORKLOAD_SEED`), with one
exception: a Figure 5 build point keeps the object it built
(:data:`~repro.experiments.common.BUILT`), and its Figure 6 twin scans
that object instead of building the same one again.  The scan starts
from exactly the state a build of its own would leave, so each result
is still a pure function of its point.  The runner has two steps:

1. :func:`precompute` computes every point of the selected experiments in
   grid order, in this process, and records each result in the one result
   table (:func:`repro.experiments.common.memoized`) under the key
   :func:`binding` gives it — the same ``(compute function, arguments)``
   pair the renderers' memo lookups use.
2. The caller then runs the ordinary assembly
   (:func:`repro.experiments.registry.run`), which finds every expensive
   point already memoized.

Points run under whatever tracer is installed ambiently, so a traced
run records the grid in grid order.  The module keeps its name, and :func:`compute_point` / :func:`prime_results` /
:func:`clear_caches` keep their signatures, because the host-time
benchmark (``perfbench``) drives the grid through them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.errors import InvalidArgumentError
from repro.experiments import (
    figures,
    random_ops,
    scaling,
    shard_scaling,
    summary,
)
from repro.experiments.common import Scale, clear, prime, resolve_scale
from repro.experiments.grid import GridPoint, full_grid


def binding(point: GridPoint) -> tuple[Callable[..., Any], tuple[Any, ...]]:
    """The one ``GridPoint -> (compute function, arguments)`` binding.

    Each pair is exactly what the kind's renderer (``run_random_ops``,
    :func:`repro.experiments.figures.run_sizes`, ...) hands to
    :func:`repro.experiments.common.memoized`, so :func:`compute_point`
    and :func:`prime_results` agree with the assembly's lookups by
    construction.
    """
    scale = resolve_scale(point.scale_name)
    if point.kind == "random-ops":
        key = random_ops.make_run_key(
            point.scheme, point.setting, point.mean_op, scale
        )
        return random_ops.compute_run, (key, point.config)
    if point.kind == "build":
        return figures.compute_build_time, (
            point.scheme, point.append_kb, scale.object_bytes,
            point.setting, point.config,
        )
    if point.kind == "scan":
        return figures.compute_scan_time, (
            point.scheme, point.append_kb, scale.object_bytes,
            point.setting, point.config,
        )
    if point.kind == "scaling":
        return scaling.compute_scaling, (
            point.scheme, scale, point.config,
            scaling.DEFAULT_STEPS, scaling.DEFAULT_INSERT_BYTES,
        )
    if point.kind == "shard":
        return shard_scaling.compute_shard_point, (
            point.scheme, point.setting, scale, point.config
        )
    if point.kind == "summary-scan":
        return summary.compute_scan_seconds, (
            point.scheme, point.setting, scale, point.config
        )
    raise InvalidArgumentError(f"unknown grid point kind {point.kind!r}")


def compute_point(point: GridPoint) -> Any:
    """Compute one grid point from scratch, except that a scan point
    takes the object its build twin kept, if that was computed first.

    Returns the point's raw result: a
    :class:`~repro.experiments.random_ops.RunResult` for random-update
    points, a :class:`~repro.experiments.scaling.ScalingResult` for
    scaling points, and a float (simulated seconds) for build/scan
    points.
    """
    compute, args = binding(point)
    return compute(*args)


def prime_results(
    points: Sequence[GridPoint], results: Sequence[Any]
) -> None:
    """Record computed grid results in the experiments' result table."""
    for point, result in zip(points, results):
        prime(*binding(point), result)


def precompute(names: list[str], scale: Scale | None = None) -> int:
    """Compute the selected experiments' grids and fill the result table.

    Returns the number of distinct points computed.  After this, running
    the experiments (the normal registry path) finds every point already
    memoized.
    """
    points = full_grid(names, scale or resolve_scale())
    for point in points:
        prime(*binding(point), compute_point(point))
    return len(points)


def clear_caches() -> None:
    """Forget every memoized experiment result and kept object (tests:
    isolation)."""
    clear()
