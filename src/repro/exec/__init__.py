"""Batch execution engine: one lifecycle for a stream of large-object ops.

Every manager operation walks manager → segio → pool → disk
call-by-call and updates the :class:`~repro.disk.iomodel.IOStats`
ledger per physical call.  What it commits — its root page or
long-field descriptor — it commits through the batch engine, at the
boundary of the batch it runs in.  :mod:`repro.exec` holds what an op
stream shares:

* the :class:`~repro.exec.engine.BatchEngine` executes whole *op
  batches* (``submit_ops`` / ``submit_multi`` over the
  :class:`~repro.exec.plan.BatchOp` descriptors), and a lone op as a
  batch of one.  It group-commits the uncharged root/descriptor flushes
  once per batch, defers frees while a fault is armed or a commit is
  held, and prices each submitted op from the one
  :class:`~repro.disk.iomodel.IOStats` ledger, read before and after it;
* its two run loops, ``execute_read`` and ``execute_write_leaves``, are
  where a manager's multi-segment read and ESM's leaf layout reach the
  segment I/O layer: they take plain tuples (no descriptor objects) and
  issue one segment access per tuple, in order.

How ops are grouped into batches is strictly an execution strategy:
reports, IOStats, and buffer-pool counters are bit-identical whether
ops are submitted one by one or together (enforced by
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
