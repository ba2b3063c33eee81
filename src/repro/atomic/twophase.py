"""Two-phase commit over the sharded store's independent shards.

The protocol, in charged-write order (every numbered step is physical
I/O the fault injector can interrupt; the bracketed steps are uncharged
image pokes that cannot crash):

Phase 1 — prepare, shards ascending (every shard's PREPARE record is
encoded and checked against its journal area before the first write,
so an oversized batch is refused with no shard touched):
  1. journal a PREPARE record on the shard (batch id, participants,
     the shard's ops) — one multi-page write, torn-able, CRC-framed;
  2. execute the shard's sub-batch under the engine's *hold* mode:
     charged tree/segment writes happen now, against shadow pages, but
     root pokes, descriptor flushes, and frees are captured, not run.

Decision:
  3. journal a single-page DECISION record on the coordinator (the
     lowest participating shard).  This atomic write is the global
     commit point: before it, every shard's committed image is still
     the batch-start state; at or after it, recovery drives every
     shard to the batch-end state.

Phase 2 — apply, shards ascending:
  4. journal a single-page APPLIED marker on the shard;
  [5] release the held commit: poke roots and descriptors (uncharged —
      no crash window between 4 and 5);
  6. run the held frees (charged; a crash here leaves the committed
     batch-end image plus reclaimable residue).

A crash anywhere before step 3 leaves every shard's image at
batch-start (roots were never poked) — recovery rolls the batch back.
A crash at or after step 3 finds a durable DECISION — recovery replays
any shard whose APPLIED marker is missing from its journaled PREPARE
record, idempotently, because an un-applied shard's image *is* the
batch-start state.  See :mod:`repro.recovery.atomic`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.atomic.journal import IntentJournal
from repro.core.payload import Payload
from repro.exec.engine import BatchResult, HeldCommit, check_ops
from repro.exec.plan import MultiOp
from repro.obs.tracer import span_of

if TYPE_CHECKING:
    from repro.shard.router import ShardedStore


class AtomicCoordinator:
    """Drives prepared, decided, applied batches over a ShardedStore."""

    def __init__(self, store: "ShardedStore", journal_pages: int) -> None:
        self.store = store
        #: Per-shard intent journals, reserved as each shard's first
        #: meta allocation (deterministic page ids).
        self.journals: tuple[IntentJournal, ...] = tuple(
            IntentJournal.reserve(shard.env, journal_pages)
            for shard in store.shards
        )
        #: Monotonic batch ids — deterministic, no wall clock.
        self._batch_seq = 0

    def submit_many(self, mops: Sequence[MultiOp]) -> BatchResult:
        """Execute a cross-shard batch all-or-nothing.

        Results and per-op costs are re-interleaved to submission order
        exactly as the journal-less router path does; the extra charged
        journal writes appear in the shard ledgers (and in per-op costs
        they bracket nothing — they are protocol overhead, attributed
        to the ``atomic.*`` spans under tracing).

        On an injected crash the exception propagates with the store
        halted mid-protocol; :func:`repro.recovery.atomic.recover_sharded_store`
        restores atomicity from the disk images before further use.
        """
        store = self.store
        check_ops(mop.op for mop in mops)
        groups: dict[int, tuple[list[int], list[MultiOp]]] = {}
        for index, mop in enumerate(mops):
            shard = mop.oid % store.n_shards
            positions, local_mops = groups.setdefault(shard, ([], []))
            positions.append(index)
            local_mops.append(MultiOp(mop.oid // store.n_shards, mop.op))
        if not groups:
            return BatchResult((), ())
        batch_id = self._batch_seq + 1
        participants = tuple(sorted(groups))
        coordinator = participants[0]
        # Every PREPARE is sized and snapshotted before the first write,
        # so a record too large for its area refuses the batch with
        # nothing changed on any shard.
        prepares = {
            shard: self.journals[shard].encode_prepare(
                batch_id, coordinator, shard, participants, groups[shard][1]
            )
            for shard in participants
        }
        self._batch_seq = batch_id
        results: list[Payload | None] = [None] * len(mops)
        costs: list[float] = [0.0] * len(mops)
        held: dict[int, HeldCommit] = {}
        with span_of(
            store.shards[0].env.tracer,
            "shard.batch", ops=len(mops), shards=len(groups),
        ):
            # Phase 1: prepare + held execution, shards ascending.
            for shard in participants:
                positions, local_mops = groups[shard]
                shard_store = store.shards[shard]
                engine = shard_store.env.exec
                with span_of(
                    shard_store.env.tracer, "atomic.prepare",
                    shard=shard, batch=batch_id, ops=len(local_mops),
                ):
                    self.journals[shard].write_prepare(prepares[shard])
                    engine.hold()
                    try:
                        outcome = shard_store.submit_multi(local_mops)
                    finally:
                        commit = engine.take_held()
                assert commit is not None  # the held batch committed
                held[shard] = commit
                for index, result, cost in zip(
                    positions, outcome.results, outcome.op_costs_ms
                ):
                    results[index] = result
                    costs[index] = cost
            # The global commit point: one atomic single-page write.
            coord_store = store.shards[coordinator]
            with span_of(
                coord_store.env.tracer, "atomic.commit",
                shard=coordinator, batch=batch_id, phase="decision",
            ):
                self.journals[coordinator].write_decision(
                    batch_id, participants
                )
            # Phase 2: apply, shards ascending.
            for shard in participants:
                shard_store = store.shards[shard]
                with span_of(
                    shard_store.env.tracer, "atomic.commit",
                    shard=shard, batch=batch_id, phase="apply",
                ):
                    self.journals[shard].write_applied(batch_id, shard)
                    shard_store.env.exec.apply_held(held[shard])
        return BatchResult(tuple(results), tuple(costs))
