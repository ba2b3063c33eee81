"""Workload runner: executes generated operations and collects per-window
statistics, matching the measurement style of Figures 7-12.

"Each mark in the graph represents the average cost of the read operations
performed since the previous mark.  For example, the mark at the 10,000
operations indicates the average cost of the reads performed within the
last 2,000 operations."
"""

from __future__ import annotations

import dataclasses

from repro.core.manager import LargeObjectManager
from repro.core.payload import SizedPayload
from repro.exec.plan import BatchOp
from repro.exec.plan import DELETE as B_DELETE
from repro.exec.plan import INSERT as B_INSERT
from repro.exec.plan import READ as B_READ
from repro.workload.generator import (
    DELETE,
    INSERT,
    READ,
    Operation,
    WorkloadGenerator,
)
from repro.core.errors import InvalidArgumentError


def as_batch_op(op: Operation) -> BatchOp:
    """Convert one generated workload operation to a batch-plan op.

    Insert payloads are length-only :class:`SizedPayload` values — the
    content is irrelevant to cost, so no bytes are materialized.  Used by
    :meth:`WorkloadRunner.run`.
    """
    if op.kind == READ:
        return BatchOp(B_READ, op.offset, op.nbytes)
    if op.kind == INSERT:
        return BatchOp(B_INSERT, op.offset, data=SizedPayload(op.nbytes))
    if op.kind == DELETE:
        return BatchOp(B_DELETE, op.offset, op.nbytes)
    raise InvalidArgumentError(f"unknown workload op kind {op.kind!r}")


@dataclasses.dataclass
class WindowStats:
    """Averages over one window of operations (one graph mark)."""

    ops_done: int
    reads: int = 0
    inserts: int = 0
    deletes: int = 0
    read_ms_total: float = 0.0
    insert_ms_total: float = 0.0
    delete_ms_total: float = 0.0
    utilization: float = 0.0
    #: Per-operation cost samples, populated only with keep_op_costs.
    read_samples: list[float] = dataclasses.field(default_factory=list)
    insert_samples: list[float] = dataclasses.field(default_factory=list)
    delete_samples: list[float] = dataclasses.field(default_factory=list)

    @property
    def avg_read_ms(self) -> float:
        """Average simulated read cost in the window, in milliseconds."""
        return self.read_ms_total / self.reads if self.reads else 0.0

    @property
    def avg_insert_ms(self) -> float:
        """Average simulated insert cost in the window, in milliseconds."""
        return self.insert_ms_total / self.inserts if self.inserts else 0.0

    @property
    def avg_delete_ms(self) -> float:
        """Average simulated delete cost in the window, in milliseconds."""
        return self.delete_ms_total / self.deletes if self.deletes else 0.0

    def record(self, kind: str, cost_ms: float, keep_op_costs: bool) -> None:
        """Account one ``kind`` operation that cost ``cost_ms``."""
        if kind == READ:
            self.reads += 1
            self.read_ms_total += cost_ms
            if keep_op_costs:
                self.read_samples.append(cost_ms)
        elif kind == INSERT:
            self.inserts += 1
            self.insert_ms_total += cost_ms
            if keep_op_costs:
                self.insert_samples.append(cost_ms)
        elif kind == DELETE:
            self.deletes += 1
            self.delete_ms_total += cost_ms
            if keep_op_costs:
                self.delete_samples.append(cost_ms)
        else:
            raise InvalidArgumentError(f"unknown workload op kind {kind!r}")


class WorkloadRunner:
    """Runs a generated workload against one object of one manager."""

    def __init__(
        self,
        manager: LargeObjectManager,
        oid: int,
        generator: WorkloadGenerator,
    ) -> None:
        self.manager = manager
        self.oid = oid
        self.generator = generator

    def run(
        self,
        n_ops: int,
        window: int = 2000,
        keep_op_costs: bool = False,
    ) -> list[WindowStats]:
        """Execute ``n_ops`` operations; returns one record per window.

        Each window's operations go to ``submit_ops`` as one op batch,
        and each op's cost is the ledger's delta across it.  With
        ``keep_op_costs=True`` every operation's individual cost is
        retained in the window's ``*_samples`` lists, for distribution
        analysis beyond the paper's window averages.
        """
        if window <= 0:
            raise InvalidArgumentError("window must be positive")
        windows: list[WindowStats] = []
        current = WindowStats(ops_done=0)
        manager = self.manager
        pending: list[BatchOp] = []
        index = 0
        for op in self.generator.operations(n_ops):
            index += 1
            pending.append(as_batch_op(op))
            if index % window == 0 or index == n_ops:
                result = manager.submit_ops(self.oid, pending)
                for bop, cost in zip(pending, result.op_costs_ms):
                    current.record(bop.kind, cost, keep_op_costs)
                pending = []
                current.ops_done = index
                current.utilization = manager.utilization(self.oid)
                windows.append(current)
                current = WindowStats(ops_done=0)
        return windows
