"""Recovery for atomic cross-shard batches: journal-driven resolution.

:mod:`repro.atomic.twophase` leaves the crash-time invariant; this
module turns it into a usable store again.  Recovery works *from the
disk image alone*: every shard's in-memory state — buffer pool frames,
positional trees, long-field descriptors — is considered lost, exactly
as a machine reboot loses RAM, and is rebuilt from raw page images
before the journal is consulted.

The per-shard decision table (``state`` is the shard's parsed
:class:`~repro.atomic.journal.JournalState`; "decided" means the batch's
DECISION record is durable on its coordinator shard):

===========================  ========  ===================================
journal state                decided?  resolution
===========================  ========  ===================================
blank / CLEAN / stale        —         ``none`` — no in-flight batch
PREPARE + APPLIED            (yes)     ``already-applied`` — the image is
                                       the batch-end state; reclaim any
                                       free-time residue, write CLEAN
PREPARE, no APPLIED          yes       ``replayed`` — re-execute the
                                       journaled ops (idempotent: the
                                       un-applied shard's image *is* the
                                       batch-start state), write CLEAN
PREPARE, no APPLIED          no        ``rolled-back`` — the image is
                                       already the batch-start state
                                       (roots were never poked); reclaim
                                       the orphaned shadow pages, write
                                       CLEAN
===========================  ========  ===================================

Reclamation is space reconciliation: after the objects are reloaded
from the image, any allocated page that no object references — and that
is not part of the reserved journal region — is an orphan of the
crashed execution (shadow pages never committed, or old pages whose
deferred free never ran) and is returned to its buddy area.

Shards that needed replay or rollback are also recorded in a
:class:`~repro.experiments.parallel.DegradationLog`, giving sweeps and
operators a structured account of what recovery had to heal.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.atomic.journal import CLEAN, PREPARE, IntentJournal, JournalState
from repro.core.api import SCHEMES
from repro.core.errors import InvalidArgumentError
from repro.core.fsck import FsckReport, check, unreferenced_pages
from repro.disk.disk import contiguous_runs
from repro.experiments.parallel import DegradationLog
from repro.obs.tracer import span_of

if TYPE_CHECKING:
    from repro.core.api import LargeObjectStore
    from repro.exec.plan import MultiOp
    from repro.shard.router import ShardedStore

__all__ = [
    "RecoveryReport",
    "ShardRecovery",
    "fsck_sharded_store",
    "recover_sharded_store",
]


@dataclasses.dataclass(frozen=True)
class ShardRecovery:
    """What recovery did on one shard.

    The last four fields are the shard's recovery telemetry: how much
    work resolution cost, in deterministic units (sweeps fold them into
    their classification tables).
    """

    shard: int
    #: "none", "already-applied", "replayed", or "rolled-back".
    action: str
    #: Batch id the resolution concerned (None for "none").
    batch_id: int | None
    #: Orphaned pages returned to the buddy areas by reconciliation.
    reclaimed_pages: int
    #: Contiguous orphan runs (buddy partial frees) the pages came in.
    reclaimed_runs: int = 0
    #: Allocated-block slots reconciliation examined across both areas.
    pages_scanned: int = 0
    #: Journaled ops re-executed (non-zero only for "replayed").
    replayed_ops: int = 0


@dataclasses.dataclass
class RecoveryReport:
    """Aggregated outcome of :func:`recover_sharded_store`."""

    shards: list[ShardRecovery] = dataclasses.field(default_factory=list)
    log: DegradationLog = dataclasses.field(default_factory=DegradationLog)


# ----------------------------------------------------------------------
# The recovery driver
# ----------------------------------------------------------------------
def recover_sharded_store(
    store: "ShardedStore", *, log: DegradationLog | None = None
) -> RecoveryReport:
    """Restore batch atomicity on a crashed atomic sharded store.

    Call after a crash fault interrupted :meth:`ShardedStore.submit_many`
    (the store's disks are halted mid-protocol).  For every shard, in
    ascending order: the fault site and halt latch are cleared, the
    buffer pool is dropped (reboot semantics — dirty frames that never
    reached disk are lost), the in-memory object structures are rebuilt
    from raw page images, and the shard's journal is resolved per the
    module decision table.  The store is fully usable afterwards, and
    per-shard fsck (:func:`fsck_sharded_store`) comes back clean.

    Safe to run on a healthy store: shards with no batch history
    resolve to ``none`` and shards whose last batch completed resolve
    to ``already-applied`` — no object state changes either way.
    """
    if store.coordinator is None:
        raise InvalidArgumentError(
            "recover_sharded_store needs an atomic store "
            "(ShardedStore(atomic=True))"
        )
    if store.scheme not in SCHEMES:
        # Refused before any shard is touched: a refusal changes nothing.
        raise InvalidArgumentError(
            f"scheme {store.scheme!r} has no atomic recovery story "
            "(no shadowing means no rollback image)"
        )
    report = RecoveryReport(log=log if log is not None else DegradationLog())
    journals = store.coordinator.journals
    states: list[JournalState] = []
    for shard, shard_store in enumerate(store.shards):
        disk = shard_store.env.disk
        disk.clear_fault_site()
        shard_store.env.pool.reset()
        states.append(journals[shard].read_state())
    for shard, shard_store in enumerate(store.shards):
        state = states[shard]
        journal = journals[shard]
        # Only a PREPARE record means a batch was in flight on this shard.
        prepare = state.prepare
        if prepare is not None and prepare.kind != PREPARE:
            prepare = None
        with span_of(
            shard_store.env.tracer,
            "atomic.recover",
            shard=shard,
            batch=prepare.batch_id if prepare is not None else 0,
        ):
            manager = shard_store.manager
            for oid in manager.oids():
                manager.reload(oid)
            replay: tuple[MultiOp, ...] = ()
            if prepare is None:
                action = "none"
            elif state.applied is not None:
                # Committed and released here; at worst the trailing
                # frees were interrupted.  The image is the batch-end
                # state — reconciliation reclaims any free-time residue.
                action = "already-applied"
            elif journals[prepare.coordinator].read_decision(
                prepare.batch_id
            ) is not None:
                # Decided but never applied here: this shard's image is
                # the batch-start state (its root pokes were held), so
                # re-executing the journaled ops lands exactly the
                # batch-end state.
                action = "replayed"
                replay = prepare.mops
            else:
                # No durable decision: the batch globally never happened
                # and the image is already the batch-start state.
                action = "rolled-back"
            # Reconcile before any replay: the crashed held execution's
            # shadow pages are orphans.
            reclaimed, runs, scanned = _reconcile(shard_store, journal)
            healed = ""
            if action == "replayed":
                shard_store.submit_multi(list(replay))
                healed = (
                    "decided but not applied; "
                    f"replayed {len(replay)} journaled op(s)"
                )
            elif action == "rolled-back":
                healed = (
                    "prepared but undecided; rolled back "
                    f"({reclaimed} orphaned page(s) reclaimed)"
                )
            if prepare is not None:
                journal.write_clean(prepare.batch_id, shard)
                if healed:
                    report.log.add(
                        shard, f"shard{shard}", 1, "crash-recovery",
                        f"batch {prepare.batch_id} {healed}", action,
                    )
            report.shards.append(ShardRecovery(
                shard, action,
                prepare.batch_id if prepare is not None else None,
                reclaimed, reclaimed_runs=runs, pages_scanned=scanned,
                replayed_ops=len(replay),
            ))
    return report


def _reconcile(
    shard_store: "LargeObjectStore", journal: IntentJournal
) -> tuple[int, int, int]:
    """Free every allocated page outside the journal that no object's
    image references.

    Contiguous orphans are freed as one run (buddy partial free), in
    ascending page order, so reclamation is deterministic.  Returns
    ``(pages reclaimed, runs freed, block slots scanned)`` summed over
    the data and meta areas — the last two are recovery telemetry,
    counted whether or not anything was orphaned.
    """
    manager = shard_store.manager
    data: set[int] = set()
    meta: set[int] = set()
    for oid in manager.oids():
        for extent in manager.image_extents(oid):
            (meta if extent.meta else data).update(extent.pages)
    areas = shard_store.env.areas
    pages = runs = scanned = 0
    for allocator, refs, keep in (
        (areas.data, data, frozenset()),
        (areas.meta, meta, journal.pages()),
    ):
        orphans = contiguous_runs(unreferenced_pages(allocator, refs, keep))
        for start, count in orphans:
            allocator.free(start, count)
        pages += sum(count for _start, count in orphans)
        runs += len(orphans)
        scanned += allocator.total_blocks
    return pages, runs, scanned


# ----------------------------------------------------------------------
# Journal-aware fsck over every shard
# ----------------------------------------------------------------------
def fsck_sharded_store(store: "ShardedStore") -> list[FsckReport]:
    """Per-shard consistency reports, journal-aware when atomic.

    Each shard is checked against its own environment; on an atomic
    store the shard's reserved journal region is excluded from the leak
    classes and any unresolved record pages come back in the report's
    ``journal_residue`` class instead.
    """
    reports: list[FsckReport] = []
    for shard, shard_store in enumerate(store.shards):
        manager = shard_store.manager
        journals = (
            [store.coordinator.journals[shard]]
            if store.coordinator is not None
            else None
        )
        reports.append(check([(manager, manager.oids())], journals=journals))
    return reports
