"""Sharded store: hash-partitioned areas behind one store surface.

The paper's storage structures are measured on a single simulated disk;
:mod:`repro.shard` scales that same machinery horizontally.  A
:class:`~repro.shard.router.ShardedStore` hash-partitions object ids
over N fully independent shards — each its own simulated disk, cost
ledger, buffer pool, buddy areas, and scheme manager — behind the
existing :class:`~repro.core.api.LargeObjectStore` surface, and extends
batching to heterogeneous multi-object batches
(:meth:`~repro.shard.router.ShardedStore.submit_many`).

Because shards share no state, a one-shard store is bit-identical to
the unsharded one, and the ``shards`` experiment
(:mod:`repro.experiments.shard_scaling`) runs each shard's slice on a
store of its own and folds the per-shard ledgers in shard order.
"""

from __future__ import annotations

from repro.shard.router import ShardedStore

__all__ = ["ShardedStore"]
