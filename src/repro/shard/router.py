"""The sharded store: hash-partitioned objects over independent shards.

A :class:`ShardedStore` owns N fully independent
:class:`~repro.core.api.LargeObjectStore` instances — each with its own
simulated disk, cost ledger, buffer pool, buddy areas, and scheme
manager — and routes every operation by object id.  The id encoding is
the classic modulo interleave:

* ``shard_of(oid) = oid % n_shards``
* ``local_oid(oid) = oid // n_shards``
* a local id ``L`` on shard ``S`` is exposed as ``L * n_shards + S``

New objects are placed round-robin, so a stream of creates spreads
evenly.  With ``shards=1`` every mapping degenerates to the identity and
the store is bit-identical to an unsharded
:class:`~repro.core.api.LargeObjectStore` — counters, pool stats, per-op
costs, and the raw disk image (pinned by ``tests/test_shard.py``).

:meth:`submit_many` extends the batch engine to heterogeneous
multi-object batches: the ops are split by shard (preserving submission
order within each shard), each shard's sub-batch runs under one batch
lifecycle via :meth:`~repro.core.manager.LargeObjectManager
.submit_multi`, in ascending shard order, and the per-op results and
costs are re-interleaved to submission order.  Because shards share no
state, the shard-order execution is observationally equivalent to any
interleaving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.atomic.twophase import AtomicCoordinator

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.core.payload import Payload
from repro.disk.iomodel import IOStats
from repro.exec.engine import BatchResult
from repro.exec.plan import BatchOp, MultiOp
from repro.obs.tracer import span_of


class ShardedStore:
    """Router over N independent single-shard large-object stores."""

    def __init__(
        self,
        scheme: str = "eos",
        config: SystemConfig = PAPER_CONFIG,
        *,
        shards: int = 1,
        leaf_pages: int = 4,
        threshold_pages: int = 4,
        improved_insert: bool = True,
        partial_leaf_io: bool = True,
        max_segment_pages: int | None = None,
        record_data: bool = True,
        shadowing: bool = True,
        atomic: bool = False,
        journal_pages: int = 8,
    ) -> None:
        """Create ``shards`` independent stores of the given scheme.

        All knobs are applied uniformly to every shard; each shard's
        environment resolves the ambient tracer independently (so a
        traced construction traces all shards into one trace).

        ``atomic=True`` reserves a ``journal_pages``-page intent
        journal in every shard's meta area (the first allocation, so
        journal page ids are deterministic) and routes
        :meth:`submit_many` through the two-phase commit protocol of
        :mod:`repro.atomic` — cross-shard batches become all-or-nothing
        under crashes, at the cost of the journal's charged writes.
        The default leaves every code path, cost, and disk image
        bit-identical to the journal-less store.
        """
        if shards < 1:
            raise InvalidArgumentError(
                f"shards must be >= 1, got {shards}"
            )
        self.n_shards = shards
        self.shards: tuple[LargeObjectStore, ...] = tuple(
            LargeObjectStore(
                scheme,
                config,
                leaf_pages=leaf_pages,
                threshold_pages=threshold_pages,
                improved_insert=improved_insert,
                partial_leaf_io=partial_leaf_io,
                max_segment_pages=max_segment_pages,
                record_data=record_data,
                shadowing=shadowing,
            )
            for _ in range(shards)
        )
        self._next_shard = 0
        self.atomic = atomic
        self.coordinator: "AtomicCoordinator | None" = None
        if atomic:
            # Imported lazily: repro.atomic imports the exec layer, and
            # journal-less stores must not pay for (or depend on) it.
            from repro.atomic.twophase import AtomicCoordinator

            self.coordinator = AtomicCoordinator(self, journal_pages)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> str:
        """Name of the storage scheme in use (uniform across shards)."""
        return self.shards[0].scheme

    @property
    def config(self) -> SystemConfig:
        """The system parameters (uniform across shards)."""
        return self.shards[0].config

    def shard_of(self, oid: int) -> int:
        """Index of the shard holding ``oid``."""
        return oid % self.n_shards

    def local_oid(self, oid: int) -> int:
        """The shard-local object id behind a routed ``oid``."""
        return oid // self.n_shards

    def _global_oid(self, shard: int, local: int) -> int:
        return local * self.n_shards + shard

    def _route(self, oid: int) -> tuple[LargeObjectStore, int]:
        return self.shards[oid % self.n_shards], oid // self.n_shards

    # ------------------------------------------------------------------
    # Object operations (decoded and delegated)
    # ------------------------------------------------------------------
    def create(self, data: Payload = b"") -> int:
        """Create a large object on the next shard (round-robin)."""
        shard = self._next_shard
        local = self.shards[shard].create(data)
        self._next_shard = (shard + 1) % self.n_shards
        return self._global_oid(shard, local)

    def destroy(self, oid: int) -> None:
        """Delete the object and free its space on its shard."""
        store, local = self._route(oid)
        store.destroy(local)

    def size(self, oid: int) -> int:
        """Object size in bytes."""
        store, local = self._route(oid)
        return store.size(local)

    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read a byte range from the object's shard."""
        store, local = self._route(oid)
        return store.read(local, offset, nbytes)

    def append(self, oid: int, data: Payload) -> None:
        """Append bytes at the end."""
        store, local = self._route(oid)
        store.append(local, data)

    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes at an arbitrary position."""
        store, local = self._route(oid)
        store.insert(local, offset, data)

    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete bytes at an arbitrary position."""
        store, local = self._route(oid)
        store.delete(local, offset, nbytes)

    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite a byte range in place (size unchanged)."""
        store, local = self._route(oid)
        store.replace(local, offset, data)

    def utilization(self, oid: int) -> float:
        """Storage utilization including index pages (Section 4.4.1)."""
        store, local = self._route(oid)
        return store.utilization(local)

    def allocated_pages(self, oid: int) -> int:
        """Pages allocated to the object, including index pages."""
        store, local = self._route(oid)
        return store.allocated_pages(local)

    # ------------------------------------------------------------------
    # Batch submission
    # ------------------------------------------------------------------
    def submit_ops(self, oid: int, ops: Sequence[BatchOp]) -> BatchResult:
        """Execute a single-object op batch on the object's shard."""
        store, local = self._route(oid)
        return store.submit_ops(local, ops)

    def _submit_many_plain(self, mops: Sequence[MultiOp]) -> BatchResult:
        """The journal-less multi-shard batch (each shard commits alone)."""
        groups: dict[int, tuple[list[int], list[MultiOp]]] = {}
        for index, mop in enumerate(mops):
            shard = mop.oid % self.n_shards
            positions, local_mops = groups.setdefault(shard, ([], []))
            positions.append(index)
            local_mops.append(
                MultiOp(mop.oid // self.n_shards, mop.op)
            )
        results: list[Payload | None] = [None] * len(mops)
        costs: list[float] = [0.0] * len(mops)
        with span_of(
            self.shards[0].env.tracer,
            "shard.batch", ops=len(mops), shards=len(groups),
        ):
            for shard in sorted(groups):
                positions, local_mops = groups[shard]
                outcome = self.shards[shard].submit_multi(local_mops)
                for index, result, cost in zip(
                    positions, outcome.results, outcome.op_costs_ms
                ):
                    results[index] = result
                    costs[index] = cost
        return BatchResult(tuple(results), tuple(costs))

    def submit_many(self, mops: Sequence[MultiOp]) -> BatchResult:
        """Execute a heterogeneous multi-object batch across shards.

        The ops are split by shard — submission order preserved within
        each shard — and each shard's sub-batch runs as one
        ``submit_multi`` batch, in ascending shard order.  Results and
        per-op costs are re-interleaved to submission order, so the
        returned :class:`~repro.exec.engine.BatchResult` reads exactly
        like a single-store submission.

        On an atomic store the batch runs under the two-phase commit
        protocol (:mod:`repro.atomic.twophase`) and is all-or-nothing
        under crashes; otherwise each shard commits independently (a
        mid-batch crash can leave earlier shards committed — the PR 8
        containment-only guarantee).
        """
        if self.coordinator is not None:
            return self.coordinator.submit_many(mops)
        return self._submit_many_plain(mops)

    # ------------------------------------------------------------------
    # Cost accounting (merged in shard order)
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """Cumulative simulated I/O, folded over shards in shard order."""
        merged = IOStats()
        for store in self.shards:
            merged.add(store.stats)
        return merged

    def snapshot(self) -> IOStats:
        """Capture the merged counters for a later delta measurement."""
        return self.stats

    def elapsed_ms(self, since: IOStats | None = None) -> float:
        """Merged simulated I/O time in ms (optionally since a snapshot)."""
        stats = self.stats
        if since is not None:
            stats = stats.delta(since)
        return stats.elapsed_ms(self.config)
