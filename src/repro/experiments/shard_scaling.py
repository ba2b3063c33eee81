"""Shard-count scaling: simulated makespan of hash-partitioned stores.

The paper measures each storage structure on one simulated disk.  The
sharded store (:mod:`repro.shard`) hash-partitions the same workload
over N independent shards — N disks, N buffer pools, N buddy areas —
so the natural scaling question is *simulated makespan*: with one
device per shard running concurrently, the elapsed I/O time is the
slowest shard's simulated time, while the total device work stays the
sum.  This experiment sweeps the shard count for each scheme and
reports makespan speedup and its efficiency against the one-shard run.

The metric is purely simulated (no wall clocks), so the report is
deterministic and safe to pin in tests.  Shards share no state, so each
shard's slice of the object bytes and of the workload runs on a store
of its own.
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
from repro.experiments.random_ops import WORKLOAD_SEED
from repro.obs.tracer import span_of
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner

#: Shard counts swept per scheme.
SHARD_COUNTS = (1, 2, 4, 8)

#: Random-update mean operation size (the summary table's 10K bytes).
MEAN_OP_BYTES = 10 * KB

#: Append chunk used to build each shard's slice.
CHUNK_BYTES = 64 * KB


@dataclasses.dataclass
class ShardPointResult:
    """Simulated outcome of one (scheme, shard count) sweep point."""

    scheme: str
    shards: int
    #: Max per-shard simulated ms — elapsed time with one device/shard.
    makespan_sim_ms: float
    #: Summed simulated ms — total device work across all shards.
    total_sim_ms: float
    io_calls: int
    pages: int


def _split_even(total: int, parts: int) -> list[int]:
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def compute_shard_point(
    scheme: str,
    shards: int,
    scale: Scale,
    config: SystemConfig = PAPER_CONFIG,
) -> ShardPointResult:
    """Run one scheme's workload split over ``shards`` shards.

    Pure function of its arguments (one grid point): each
    shard builds its slice of the object bytes on a fresh store, then
    runs its slice of the random-update mix with a per-shard seed; only
    the measured (post-build) phase is reported, matching the unsharded
    random points.  The ``shard.setup`` / ``shard.measure`` spans split
    a traced run's cost by phase and shard.
    """
    total_ops = scale.starburst_ops if scheme == "starburst" else scale.n_ops
    op_split = _split_even(total_ops, shards)
    byte_split = _split_even(scale.object_bytes, shards)
    sims: list[float] = []
    io_calls = 0
    pages = 0
    for index, n_ops in enumerate(op_split):
        store = make_store(scheme, config=config)
        tracer = store.env.tracer
        with span_of(tracer, "shard.setup", shard=index):
            oid = build_object(store, byte_split[index], CHUNK_BYTES)
        before = store.snapshot()
        with span_of(tracer, "shard.measure", shard=index):
            generator = WorkloadGenerator(
                object_size=store.size(oid),
                mean_op_size=MEAN_OP_BYTES,
                seed=WORKLOAD_SEED + index,
            )
            WorkloadRunner(store.manager, oid, generator).run(
                n_ops, window=max(1, n_ops)
            )
        delta = store.stats.delta(before)
        sims.append(delta.elapsed_ms(config))
        io_calls += delta.io_calls
        pages += delta.pages_transferred
    return ShardPointResult(
        scheme=scheme,
        shards=shards,
        makespan_sim_ms=max(sims),
        total_sim_ms=sum(sims),
        io_calls=io_calls,
        pages=pages,
    )


def run_shard_point(
    scheme: str,
    shards: int,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> ShardPointResult:
    """Run (or fetch the memoized) sweep point."""
    scale = scale or resolve_scale()
    return memoized(compute_shard_point, scheme, shards, scale, config)


def format_shard_scaling(
    results_by_scheme: dict[str, list[ShardPointResult]],
) -> str:
    """Render the shard sweep with makespan speedups per scheme."""
    rows = []
    for scheme, results in results_by_scheme.items():
        base = results[0].makespan_sim_ms
        for result in results:
            speedup = base / result.makespan_sim_ms if result.makespan_sim_ms else 0.0
            rows.append(
                (
                    scheme,
                    str(result.shards),
                    f"{result.makespan_sim_ms / 1000.0:.2f}",
                    f"{speedup:.2f}x",
                    f"{speedup / result.shards:.0%}",
                    f"{result.total_sim_ms / 1000.0:.2f}",
                    str(result.io_calls),
                )
            )
    return (
        "Shard-count scaling (simulated; makespan = slowest shard, one "
        "device per shard)\n"
        + format_table(
            (
                "scheme",
                "shards",
                "makespan s",
                "speedup",
                "efficiency",
                "total s",
                "io calls",
            ),
            rows,
        )
        + "\nspeedup is vs the same scheme at 1 shard; efficiency = "
        "speedup / shards"
    )


def main() -> str:
    """Run and render the shard scaling experiment (used by the CLI)."""
    results = {
        scheme: [run_shard_point(scheme, n) for n in SHARD_COUNTS]
        for scheme in ("esm", "starburst", "eos")
    }
    return format_shard_scaling(results)

