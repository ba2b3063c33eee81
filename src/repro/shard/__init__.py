"""Sharded store: hash-partitioned areas with per-shard parallelism.

The paper's storage structures are measured on a single simulated disk;
:mod:`repro.shard` scales that same machinery horizontally.  A
:class:`~repro.shard.router.ShardedStore` hash-partitions object ids
over N fully independent shards — each its own simulated disk, cost
ledger, buffer pool, buddy areas, and scheme manager — behind the
existing :class:`~repro.core.api.LargeObjectStore` surface, and extends
batching to heterogeneous multi-object batches
(:meth:`~repro.shard.router.ShardedStore.submit_many`).

Because shards share no state, shard work parallelizes *exactly*:
:mod:`repro.shard.program` describes a shard's whole life as a pure
picklable program, :mod:`repro.shard.parallel` replays programs across
worker processes with the grid runner's deterministic fan-out, and the
merge sums the per-shard ledger deltas in shard order — results are
bit-identical whatever the worker count, and a one-shard store is
bit-identical to the unsharded one.
"""

from __future__ import annotations

from repro.shard.parallel import (
    MergedOutcome,
    default_jobs,
    merge_outcomes,
    run_shard_programs,
)
from repro.shard.program import (
    BuildStep,
    OpsStep,
    ScanStep,
    ShardOutcome,
    ShardProgram,
    Step,
    WorkloadStep,
    execute_program,
    execute_program_traced,
)
from repro.shard.router import ShardedStore
from repro.shard.runner import ShardedWorkloadRunner

__all__ = [
    "BuildStep",
    "MergedOutcome",
    "OpsStep",
    "ScanStep",
    "ShardOutcome",
    "ShardProgram",
    "ShardedStore",
    "ShardedWorkloadRunner",
    "Step",
    "WorkloadStep",
    "default_jobs",
    "execute_program",
    "execute_program_traced",
    "merge_outcomes",
    "run_shard_programs",
]
