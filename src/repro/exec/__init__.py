"""Batch execution engine: plan/execute split for large-object op streams.

The per-operation path charges and flushes as it goes: every manager
operation walks manager → segio → pool → disk call-by-call, updates the
:class:`~repro.disk.iomodel.IOStats` ledger per physical call, and
commits its root page / long-field descriptor before returning.  That
is faithful to the paper but makes Python call overhead the dominant
wall-clock cost once the simulated workload grows past the paper's
10 MB objects.

:mod:`repro.exec` splits the hot paths into *plan* and *execute*:

* managers emit declarative :class:`~repro.exec.plan.IOPlan` run
  descriptors (read runs, leaf writes, allocate and flush intents with
  page ranges and charge classes) instead of interleaving policy with
  pool calls;
* the :class:`~repro.exec.engine.BatchEngine` executes whole plans and
  whole *op batches* (``submit_ops``), group-committing the uncharged
  root/descriptor flushes once per batch and pricing each op from the
  one :class:`~repro.disk.iomodel.IOStats` ledger, read before and
  after it.

The engine is strictly an execution strategy: reports, IOStats, and
buffer-pool counters are bit-identical to the per-op path (enforced by
``tests/test_batch.py`` over the full grid), and only *uncharged*
maintenance is ever coalesced — charged runs keep their exact per-call
structure because coalescing them would change the paper's cost model.
"""

from __future__ import annotations

from repro.exec.engine import BatchEngine, BatchResult
from repro.exec.plan import (
    CHARGED,
    UNCHARGED,
    BatchOp,
    IOPlan,
    LeafWrite,
    MultiOp,
    ReadRun,
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
    "CHARGED",
    "UNCHARGED",
    "IOPlan",
    "LeafWrite",
    "MultiOp",
    "ReadRun",
    "multi_op",
    "read_op",
    "append_op",
    "insert_op",
    "delete_op",
    "replace_op",
]
