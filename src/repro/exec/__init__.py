"""Batch execution engine: one lifecycle for a stream of large-object ops.

The per-operation path charges and flushes as it goes: every manager
operation walks manager → segio → pool → disk call-by-call, updates the
:class:`~repro.disk.iomodel.IOStats` ledger per physical call, and
commits its root page / long-field descriptor before returning.  That
is faithful to the paper but makes Python call overhead the dominant
wall-clock cost once the simulated workload grows past the paper's
10 MB objects.

:mod:`repro.exec` holds what an op stream shares:

* the :class:`~repro.exec.engine.BatchEngine` executes whole *op
  batches* (``submit_ops`` / ``submit_multi`` over the
  :class:`~repro.exec.plan.BatchOp` descriptors), group-committing the
  uncharged root/descriptor flushes once per batch, deferring frees
  while a fault is armed or a commit is held, and pricing each op from
  the one :class:`~repro.disk.iomodel.IOStats` ledger, read before and
  after it;
* its two run loops, ``execute_read`` and ``execute_write_leaves``, are
  where a manager's multi-segment read and ESM's leaf layout reach the
  segment I/O layer: they take plain tuples (no descriptor objects) and
  issue one segment access per tuple, in order.

The engine is strictly an execution strategy: reports, IOStats, and
buffer-pool counters are bit-identical to the per-op path (enforced by
``tests/test_batch.py`` over the full grid), and only *uncharged*
maintenance is ever coalesced — charged runs keep their exact per-call
structure because coalescing them would change the paper's cost model.
"""

from __future__ import annotations

from repro.exec.engine import BatchEngine, BatchResult
from repro.exec.plan import (
    BatchOp,
    MultiOp,
    append_op,
    delete_op,
    insert_op,
    multi_op,
    read_op,
    replace_op,
)

__all__ = [
    "BatchEngine",
    "BatchOp",
    "BatchResult",
    "MultiOp",
    "multi_op",
    "read_op",
    "append_op",
    "insert_op",
    "delete_op",
    "replace_op",
]
