"""Sharded workload runner: windowed random-update mixes over N shards.

Drives one workload stream per object against a live
:class:`~repro.shard.router.ShardedStore`, window by window: each
window's operations are interleaved round-robin across the streams into
one heterogeneous multi-object batch, submitted through
:meth:`~repro.shard.router.ShardedStore.submit_many`, and the returned
per-op costs are demultiplexed back into per-stream
:class:`~repro.workload.runner.WindowStats`.

Because the router splits a batch by shard *preserving submission
order*, a stream whose object is alone on its shard sees exactly the op
sequence — and therefore exactly the windows, bit for bit — that
:meth:`~repro.workload.runner.WorkloadRunner.run` produces on a
standalone store (pinned by ``tests/test_shard.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import InvalidArgumentError
from repro.exec.plan import MultiOp
from repro.shard.router import ShardedStore
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WindowStats, as_batch_op


class ShardedWorkloadRunner:
    """Runs one generated workload per object, batched across shards."""

    def __init__(
        self,
        store: ShardedStore,
        oids: Sequence[int],
        generators: Sequence[WorkloadGenerator],
    ) -> None:
        if len(oids) != len(generators):
            raise InvalidArgumentError(
                f"{len(oids)} objects but {len(generators)} generators"
            )
        if not oids:
            raise InvalidArgumentError("at least one object is required")
        self.store = store
        self.oids = tuple(oids)
        self.generators = tuple(generators)

    def run(
        self,
        n_ops: int,
        window: int = 2000,
        keep_op_costs: bool = False,
    ) -> list[list[WindowStats]]:
        """Execute ``n_ops`` operations *per stream*; windows per stream.

        Result ``[i]`` lines up with ``oids[i]`` and reads exactly like
        the single-store runner's window list: per-kind counts, cost
        totals (and samples with ``keep_op_costs``), and the object's
        utilization at each window boundary.
        """
        if window <= 0:
            raise InvalidArgumentError("window must be positive")
        store = self.store
        streams = len(self.oids)
        windows: list[list[WindowStats]] = [[] for _ in range(streams)]
        done = 0
        while done < n_ops:
            take = min(window, n_ops - done)
            # One window per stream, interleaved round-robin: op j of the
            # batch belongs to stream j % streams.
            per_stream = [
                [as_batch_op(op) for op in gen.operations(take)]
                for gen in self.generators
            ]
            mops = [
                MultiOp(self.oids[s], per_stream[s][j])
                for j in range(take)
                for s in range(streams)
            ]
            result = store.submit_many(mops)
            done += take
            for s in range(streams):
                current = WindowStats(ops_done=done)
                stream_costs = result.op_costs_ms[s::streams]
                for bop, cost in zip(per_stream[s], stream_costs):
                    current.record(bop.kind, cost, keep_op_costs)
                current.utilization = store.utilization(self.oids[s])
                windows[s].append(current)
        return windows
