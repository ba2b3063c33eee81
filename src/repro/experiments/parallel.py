"""Parallel experiment runner: fan the grid across worker processes.

The experiments are embarrassingly parallel — every
:class:`~repro.experiments.grid.GridPoint` builds its own simulated disk,
cost ledger, and workload generator (seeded per point with the fixed
:data:`~repro.experiments.random_ops.WORKLOAD_SEED`), so points share no
state and their results do not depend on scheduling.  The runner exploits
that in three steps:

1. :func:`run_grid` computes every point, either in-process or via a
   :class:`concurrent.futures.ProcessPoolExecutor`; ``executor.map``
   preserves submission order, so results come back deterministically
   ordered regardless of which worker finished first.
2. :func:`prime_results` records the computed values in the one result
   table (:func:`repro.experiments.common.memoized`), under the key
   :func:`binding` gives each point — the same ``(compute function,
   arguments)`` pair the figure modules' memo wrappers look up.
3. The caller then runs the ordinary serial assembly
   (:func:`repro.experiments.registry.run`), which finds every expensive
   point already memoized and renders reports **bit-identical** for any
   worker count — the invariance contract checked by
   ``tests/test_parallel.py``.

:func:`precompute` bundles the three steps; the CLI goes through it for
every ``--jobs``, 1 included, so there is no separate serial path.

Because every point is a pure function of its :class:`GridPoint`, worker
failures are recoverable by recomputation: :func:`run_grid` degrades
gracefully instead of aborting the whole grid.  A crashed worker process
(the executor breaks), a worker that exceeds the per-point ``timeout_s``,
or a point whose computation raises in the worker is retried up to
``retries`` times on a fresh pool; past that, the point is computed
serially in the parent process, which is authoritative — if *that*
raises, the error is real and propagates.  Every incident is recorded in
a structured :class:`DegradationLog` so a degraded run is still
bit-identical in its results but visibly degraded in its report.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.core.errors import InvalidArgumentError
from repro.experiments import (
    fig5_build,
    fig6_scan,
    random_ops,
    scaling,
    shard_scaling,
    summary,
)
from repro.experiments.common import Scale, clear, prime, resolve_scale
from repro.experiments.grid import GridPoint, full_grid
from repro.obs import timeline as obs_timeline
from repro.obs.runtime import installed
from repro.obs.timeline import TimelineSampler
from repro.obs.tracer import Tracer


def binding(point: GridPoint) -> tuple[Callable[..., Any], tuple[Any, ...]]:
    """The one ``GridPoint -> (compute function, arguments)`` binding.

    Each pair is exactly what the kind's public memo wrapper
    (``run_random_ops``, ``build_time_seconds``, ...) hands to
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
        return fig5_build.compute_build_time, (
            point.scheme, point.append_kb, scale.object_bytes,
            point.setting, point.config,
        )
    if point.kind == "scan":
        return fig6_scan.compute_scan_time, (
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
    """Compute one grid point from scratch (runs inside workers).

    Returns the point's raw result: a
    :class:`~repro.experiments.random_ops.RunResult` for random-update
    points, a :class:`~repro.experiments.scaling.ScalingResult` for
    scaling points, and a float (simulated seconds) for build/scan
    points.  All of these pickle cleanly back to the parent.
    """
    compute, args = binding(point)
    return compute(*args)


def compute_point_observed(
    point: GridPoint,
    *,
    traced: bool,
    cadence: tuple[int | None, float | None] | None,
) -> tuple[Any, dict[str, object] | None, dict[str, object] | None]:
    """Compute one grid point under a private tracer and/or sampler.

    Returns ``(result, trace_state_or_None, sampler_state_or_None)``;
    ``cadence`` is the sampler's ``(every_ops, every_sim_ms)``.  Both
    states are picklable and absorbed by the parent in grid-point order,
    so the merged trace and timeline do not depend on worker count or
    scheduling.
    """
    tracer: Tracer | None = None
    sampler: TimelineSampler | None = None
    with contextlib.ExitStack() as stack:
        if cadence is not None:
            sampler = stack.enter_context(
                obs_timeline.installed(TimelineSampler(*cadence))
            )
        if traced:
            tracer = stack.enter_context(
                installed(Tracer(meta={"point": _point_label(point)}))
            )
        result = compute_point(point)
    return (
        result,
        None if tracer is None else tracer.capture_state(),
        None if sampler is None else sampler.capture_state(),
    )


#: Times a failed point is re-fanned to workers before serial fallback.
DEFAULT_RETRIES = 2


@dataclasses.dataclass(frozen=True)
class DegradationEvent:
    """One worker-side incident the runner healed."""

    point_index: int
    point_label: str
    attempt: int
    #: "worker-crash" (the pool broke), "timeout" (per-point deadline
    #: exceeded), "error" (the computation raised in the worker), or
    #: "cancelled" (collateral of recovering the pool).
    kind: str
    detail: str
    #: What the runner did: "retried" or "serial-fallback".
    action: str


@dataclasses.dataclass
class DegradationLog:
    """Structured record of everything the parallel runner healed."""

    events: list[DegradationEvent] = dataclasses.field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the run needed any retry or fallback at all."""
        return bool(self.events)

    def add(
        self,
        point_index: int,
        point_label: str,
        attempt: int,
        kind: str,
        detail: str,
        action: str,
    ) -> None:
        self.events.append(
            DegradationEvent(
                point_index, point_label, attempt, kind, detail, action
            )
        )

    def summary(self) -> str:
        """Multi-line human rendering (empty string when not degraded)."""
        if not self.events:
            return ""
        fallbacks = sum(
            1 for e in self.events if e.action == "serial-fallback"
        )
        lines = [
            f"parallel runner degraded: {len(self.events)} incident(s), "
            f"{fallbacks} point(s) computed serially"
        ]
        lines.extend(
            f"  [{event.kind}] point {event.point_index} "
            f"({event.point_label}) attempt {event.attempt}: "
            f"{event.detail} -> {event.action}"
            for event in self.events
        )
        return "\n".join(lines)


def _point_label(point: Any) -> str:
    # Anything with a .label (the crash sweep's tasks) self-describes;
    # grid points keep their kind:scheme@scale rendering.
    label = getattr(point, "label", None)
    if label is not None:
        return str(label)
    return f"{point.kind}:{point.scheme}@{point.scale_name}"


def run_grid(
    points: Sequence[Any],
    jobs: int = 1,
    *,
    retries: int = DEFAULT_RETRIES,
    timeout_s: float | None = None,
    compute: Callable[[Any], Any] = compute_point,
    log: DegradationLog | None = None,
) -> list[Any]:
    """Compute every grid point, returning results in point order.

    ``jobs <= 1`` computes in-process; otherwise a process pool of up to
    ``jobs`` workers is used (never more workers than points).  Either
    way the result list lines up index-for-index with ``points``.

    The parallel path self-heals: points lost to a crashed worker, a
    per-point timeout, or a worker-side exception are re-submitted up to
    ``retries`` times (on a fresh pool when the old one broke) and then
    computed serially in the parent — every incident lands in ``log``.
    Results are pure functions of their points, so a healed run's output
    is bit-identical to an undisturbed one.
    """
    points = list(points)
    if log is None:
        log = DegradationLog()
    if jobs <= 1 or len(points) <= 1:
        return [compute(point) for point in points]
    workers = min(jobs, len(points))
    results: list[Any] = [None] * len(points)
    attempts = [0] * len(points)
    pending = list(range(len(points)))
    executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        while pending:
            retry_next: list[int] = []
            broken = False
            futures: dict[int, concurrent.futures.Future[Any]] = {}
            try:
                for i in pending:
                    futures[i] = executor.submit(compute, points[i])
            except concurrent.futures.BrokenExecutor:
                broken = True
            for i in pending:
                label = _point_label(points[i])
                future = futures.get(i)
                if future is None:
                    kind, detail = (
                        "worker-crash",
                        "executor already broken at submit",
                    )
                else:
                    try:
                        results[i] = future.result(timeout=timeout_s)
                        continue
                    except concurrent.futures.TimeoutError:
                        # A hung worker cannot be preempted; the pool is
                        # rebuilt and the point computed serially now —
                        # re-fanning a point that just hung risks hanging
                        # the whole run again.
                        broken = True
                        log.add(
                            i, label, attempts[i], "timeout",
                            f"no result within {timeout_s}s",
                            "serial-fallback",
                        )
                        results[i] = compute(points[i])
                        continue
                    except BrokenProcessPool as exc:
                        broken = True
                        kind = "worker-crash"
                        detail = str(exc) or "worker process died"
                    except concurrent.futures.CancelledError:
                        kind = "cancelled"
                        detail = "future cancelled during pool recovery"
                    # The worker re-raises whatever the point's compute
                    # raised — including injected fault exceptions from a
                    # poisoned worker; recomputing is safe (points are
                    # pure) and the serial fallback is authoritative.
                    except Exception as exc:  # repro-lint: disable=FAULT001
                        kind = "error"
                        detail = f"{type(exc).__name__}: {exc}"
                attempts[i] += 1
                if attempts[i] <= retries:
                    log.add(i, label, attempts[i], kind, detail, "retried")
                    retry_next.append(i)
                else:
                    log.add(
                        i, label, attempts[i], kind, detail,
                        "serial-fallback",
                    )
                    results[i] = compute(points[i])
            if broken:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                )
            pending = retry_next
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return results


def prime_results(
    points: Sequence[GridPoint], results: Sequence[Any]
) -> None:
    """Record computed grid results in the experiments' result table."""
    for point, result in zip(points, results):
        prime(*binding(point), result)


def precompute(
    names: list[str],
    jobs: int,
    scale: Scale | None = None,
    *,
    retries: int = DEFAULT_RETRIES,
    timeout_s: float | None = None,
    log: DegradationLog | None = None,
    tracer: Tracer | None = None,
    sampler: TimelineSampler | None = None,
) -> int:
    """Compute the selected experiments' grids and fill the result table.

    Returns the number of distinct points computed.  After this, running
    the experiments (the normal registry path) finds every point already
    memoized, so report text and cost counters are the same bits for
    every ``jobs``.  Worker failures degrade per :func:`run_grid`; pass
    a :class:`DegradationLog` to see what was healed.

    With a ``tracer`` and/or a ``sampler``, every point is computed
    under a private one (:func:`compute_point_observed`) and the
    captured states are absorbed here in grid order — the merged trace
    and timeline are independent of ``jobs``, 1 included.
    """
    scale = scale or resolve_scale()
    points = full_grid(names, scale)
    compute = functools.partial(
        compute_point_observed,
        traced=tracer is not None,
        cadence=(
            None if sampler is None
            else (sampler.every_ops, sampler.every_sim_ms)
        ),
    )
    results = []
    for result, trace_state, sample_state in run_grid(
        points, jobs=jobs, retries=retries, timeout_s=timeout_s,
        compute=compute, log=log,
    ):
        if trace_state is not None:
            tracer.absorb(trace_state)  # type: ignore[union-attr]
        if sample_state is not None:
            sampler.absorb(sample_state)  # type: ignore[union-attr]
        results.append(result)
    prime_results(points, results)
    return len(points)


def clear_caches() -> None:
    """Forget every memoized experiment result (tests: isolation)."""
    clear()
