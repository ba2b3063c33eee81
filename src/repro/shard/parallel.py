"""Per-shard parallel execution with an exact, order-defined merge.

Shards share no state, so a set of :class:`~repro.shard.program
.ShardProgram` replays is embarrassingly parallel — the same property
the experiment grid exploits, and the runner here *is* the grid runner
(:func:`repro.experiments.parallel.run_grid`): the same self-healing
process-pool fan-out, retries, timeout handling, and degradation log,
with shard programs as the points.  ``executor.map``-style submission
ordering plus pure program replay make the outcome list — and therefore
everything merged from it — independent of worker count and scheduling.

:func:`merge_outcomes` folds the per-shard results in **shard order**:

* the merged :class:`~repro.disk.iomodel.IOStats` ledger is the sum of
  each shard's measured-phase ledger delta (five integer adds a shard);
* ``sim_ms`` is the aggregate simulated I/O of the merged ledger —
  total device work, equal to the sum over shards;
* ``makespan_sim_ms`` is the max per-shard simulated time — what a host
  with one independent disk per shard would observe.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Sequence

from repro.buffer.pool import PoolStats
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.disk.iomodel import IOStats
from repro.experiments.parallel import (
    DEFAULT_RETRIES,
    DegradationLog,
    run_grid,
)
from repro.obs.tracer import Tracer
from repro.shard.program import (
    ShardOutcome,
    ShardProgram,
    execute_program,
    execute_program_traced,
)


class MergedOutcome(NamedTuple):
    """Shard outcomes folded into one report (see module docstring)."""

    stats: IOStats
    sim_ms: float
    makespan_sim_ms: float
    pool: PoolStats
    shards: tuple[ShardOutcome, ...]


def default_jobs(n_programs: int) -> int:
    """Worker processes used when the caller does not pin ``jobs``.

    One worker per shard, capped at the machine's core count — more
    workers than cores just interleaves shard replays.
    """
    return max(1, min(n_programs, os.cpu_count() or 1))


def run_shard_programs(
    programs: Sequence[ShardProgram],
    jobs: int | None = None,
    *,
    retries: int = DEFAULT_RETRIES,
    timeout_s: float | None = None,
    log: DegradationLog | None = None,
    tracer: Tracer | None = None,
) -> list[ShardOutcome]:
    """Replay every shard program, in parallel, outcomes in program order.

    With a ``tracer``, each worker replays its program under a private
    tracer and the captured states are absorbed here in program order —
    the merged trace is independent of ``jobs``, exactly like the traced
    experiment grid.
    """
    if jobs is None:
        jobs = default_jobs(len(programs))
    results = run_grid(
        programs,
        jobs=jobs,
        retries=retries,
        timeout_s=timeout_s,
        compute=execute_program if tracer is None else execute_program_traced,
        log=log,
    )
    if tracer is None:
        return results
    outcomes = []
    for outcome, state in results:
        tracer.absorb(state)
        outcomes.append(outcome)
    return outcomes


def merge_outcomes(
    outcomes: Sequence[ShardOutcome],
    config: SystemConfig = PAPER_CONFIG,
) -> MergedOutcome:
    """Fold shard outcomes into one report, in shard-index order.

    Deterministic by construction: every input is a pure replay result
    and the fold order is defined by shard index, not completion order.
    """
    ordered = sorted(outcomes, key=lambda o: o.shard_index)
    stats = IOStats()
    pool = PoolStats()
    for outcome in ordered:
        stats.add(outcome.stats)
        pool.add(outcome.pool)
    return MergedOutcome(
        stats=stats,
        sim_ms=stats.elapsed_ms(config),
        makespan_sim_ms=max((o.sim_ms for o in ordered), default=0.0),
        pool=pool,
        shards=tuple(ordered),
    )
