"""The batch engine: executes run lists and op batches over one environment.

One :class:`BatchEngine` hangs off every
:class:`~repro.core.env.StorageEnvironment` (``env.exec``).  Every
operation that commits anything runs inside a batch: ``run_batch`` /
``run_multi`` open one for a submitted op list, and a manager's op
bracket opens a batch of one (:meth:`BatchEngine.begin`) for a lone
op, or joins the batch already open.  So there is one commit path, and
two batch-scoped strategies apply to every op:

* **Group commit.**  Root-page commits (ESM/EOS) and long-field
  descriptor flushes (Starburst) are *uncharged*; the managers hand them
  to the engine, which commits each distinct root/descriptor exactly
  once at the batch boundary — the shadowing commit point of Section
  3.3 — as a snapshot the disk builds into bytes only when the page is
  read (``BufferPool.commit_image``).  Charged index-page flushes
  still run inside each operation — deferring those would change the
  paper's cost model.

* **Crash-consistent frees.**  While a fault injector is armed, segment
  and index-page frees are deferred to the batch boundary (after the
  group commit) so a mid-batch crash can never have recycled a page the
  last *committed* root still references.  The recovered image is then
  always the batch-start state (crashes can only fire at charged
  writes, which all precede the commit pokes) or the batch-end state
  (crashes during the deferred frees land after the pokes).  Unfaulted
  batches free immediately, keeping pool counters bit-identical however
  the ops are grouped.

The engine never coalesces charged runs: one read run or leaf write maps
to exactly the same physical calls, in the same order, in a batch of
one or of many.  Only the uncharged flush intents are deduplicated.
Reads commit nothing and open no batch.

Simulated cost has one home: every charge lands in the environment's
:class:`~repro.disk.iomodel.IOStats` ledger as it happens — batched or
not, traced or not — and the dispatch loop prices each op from it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, NamedTuple, Protocol, Sequence

from repro.core.errors import InvalidArgumentError
from repro.core.payload import Payload, check_payload, payload_concat
from repro.exec.plan import (
    APPEND,
    DELETE,
    INSERT,
    OP_KINDS,
    READ,
    REPLACE,
    BatchOp,
    MultiOp,
)

if TYPE_CHECKING:
    from repro.buddy.allocator import BuddyAllocator
    from repro.core.env import StorageEnvironment
    from repro.core.manager import LargeObjectManager


class RootHost(Protocol):
    """A positional tree whose root commit can be group-deferred."""

    root_page_id: int

    def commit_root(self) -> None:
        """Commit the root's current state to its page (uncharged)."""

    def mark_root_dirty(self) -> None:
        """Re-mark the root dirty (in-memory bookkeeping only)."""


class DescriptorPage(Protocol):
    """The part of a long-field descriptor the engine keys on."""

    page_id: int


class DescriptorHost(Protocol):
    """A manager whose descriptor flush can be group-deferred."""

    def flush_descriptor(self, descriptor: DescriptorPage) -> None:
        """Commit the descriptor's current state to its page (uncharged)."""


class HeldCommit(NamedTuple):
    """A batch's commit effects, captured instead of applied.

    Two-phase commit (``repro.atomic``) must not let a shard's batch
    become visible — or recycle any page the batch-start image still
    references — before the coordinator's global decision.  Under the
    engine's *hold* mode (:meth:`BatchEngine.hold`) the batch
    boundary packages its pending root pokes, descriptor flushes, and
    deferred frees into one of these instead of running them;
    :meth:`BatchEngine.apply_held` releases them later, in the original
    order (uncharged pokes first, charged frees after).  A normal commit
    applies the same effects at once, through the same routine.
    """

    roots: tuple[RootHost, ...]
    descriptors: tuple[tuple[DescriptorHost, DescriptorPage], ...]
    frees: tuple[tuple["BuddyAllocator", int, int], ...]


class BatchResult(NamedTuple):
    """Outcome of one submitted batch.

    ``results`` holds one entry per op — the payload for reads, ``None``
    for mutations; ``op_costs_ms`` the per-op simulated cost, the
    ledger's delta across each op.
    """

    results: tuple["Payload | None", ...]
    op_costs_ms: tuple[float, ...]


class BatchEngine:
    """Run-list and batch executor bound to one storage environment."""

    def __init__(self, env: "StorageEnvironment") -> None:
        self.env = env
        #: True while a batch is open.
        self.active = False
        self._pending_roots: dict[int, RootHost] = {}
        self._pending_descriptors: dict[
            int, tuple[DescriptorHost, DescriptorPage]
        ] = {}
        self._deferred_frees: list[tuple["BuddyAllocator", int, int]] = []
        self._frees_deferred = False
        self._hold = False
        self._held: HeldCommit | None = None

    # ------------------------------------------------------------------
    # Run loops (called by the managers' ops)
    # ------------------------------------------------------------------
    def execute_read(
        self, runs: Iterable[tuple[int, int, int, int]]
    ) -> Payload:
        """Read ``(page_id, start, nbytes, read_pages)`` runs, in order.

        Each run is one byte range within the segment starting at
        ``page_id`` and charges the hybrid read policy.  Runs are never
        coalesced — each corresponds to one segment access of the
        paper's cost model.  A
        run with an explicit ``read_pages`` reads that many pages of the
        segment and slices in memory (the whole-leaf I/O ablation); zero
        derives the page range from the byte range via the 3-step
        unaligned-boundary protocol.
        """
        segio = self.env.segio
        parts: list[Payload] = []
        for page_id, start, nbytes, read_pages in runs:
            if read_pages:
                whole = segio.read_pages(page_id, read_pages)
                parts.append(whole[start : start + nbytes])
            else:
                parts.append(
                    segio.read_boundary_unaligned(page_id, start, nbytes)
                )
        return parts[0] if len(parts) == 1 else payload_concat(parts)

    def execute_write_leaves(
        self, writes: Iterable[tuple[int, int, int]], stream: Payload
    ) -> list[int]:
        """Allocate and write one fresh leaf segment per
        ``(alloc_pages, used_bytes, write_pages)`` entry, in order.

        Per leaf: claim ``alloc_pages`` from the buddy data area, then
        write the next ``used_bytes`` bytes of ``stream`` (padded to
        ``write_pages`` pages under whole-leaf I/O; zero derives the
        page count from ``used_bytes``).  Allocation and write alternate
        leaf by leaf, so buddy directory accesses and charged writes land
        in one fixed order.  Returns the first page id of each new leaf
        segment.
        """
        segio = self.env.segio
        allocate = self.env.areas.data.allocate
        page_ids: list[int] = []
        position = 0
        for alloc_pages, used_bytes, write_pages in writes:
            page_id = allocate(alloc_pages)
            chunk = stream[position : position + used_bytes]
            position += used_bytes
            if write_pages:
                segio.write_pages(page_id, chunk, n_pages=write_pages)
            else:
                segio.write_pages(page_id, chunk)
            page_ids.append(page_id)
        return page_ids

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> bool:
        """Open a batch unless one is open; True if this call opened it.

        A manager's op bracket calls this on entry.  True means the op
        is a batch of one, and the bracket closes it with :meth:`commit`
        on success or :meth:`abort` on failure; False means the op joins
        the batch ``run_batch`` / ``run_multi`` opened.
        """
        if self.active:
            return False
        self.active = True
        if self.env.disk.fault_site is not None or self._hold:
            # Hold mode defers frees even with no fault armed: a held
            # commit's old pages must stay allocated until the global
            # decision, or a recycled page could be overwritten before
            # rollback becomes impossible to need.
            areas = self.env.areas
            self._frees_deferred = True
            areas.meta.free_sink = self._defer_free
            areas.data.free_sink = self._defer_free
        return True

    def commit(self) -> None:
        """Batch boundary: take the commit effects, close, release.

        The engine's own state is reset *before* anything is applied, so
        a crash injected into the trailing frees (a directory writeback)
        leaves the engine closed with the batch-end image committed.
        Under hold mode (two-phase commit's phase 1) the effects are kept
        as a :class:`HeldCommit` for :meth:`take_held` instead — the
        batch's I/O physically happened and is in the ledger; only its
        *visibility* is held.
        """
        roots = self._pending_roots
        descriptors = self._pending_descriptors
        frees = self._deferred_frees
        self._pending_roots = {}
        self._pending_descriptors = {}
        self._deferred_frees = []
        self._close()
        if self._hold:
            self._held = HeldCommit(
                tuple(roots.values()),
                tuple(descriptors.values()),
                tuple(frees),
            )
        else:
            self._apply(roots.values(), descriptors.values(), frees)

    def abort(self) -> None:
        """Unwind a failed batch without touching pool or disk state.

        Nothing is poked at the disk — after an injected crash the
        environment is dead, and cleanup must not push post-crash state
        into the image (under ``REPRO_CHECKS=1`` the disk and the
        allocator refuse it: ``repro.lint.contracts.refuse_in_cleanup``).
        Deferred roots are re-marked dirty in memory so the next
        successful op commits their images.
        Deferred frees are dropped: their ops never committed.
        """
        for tree in self._pending_roots.values():
            tree.mark_root_dirty()
        self._pending_roots.clear()
        self._pending_descriptors.clear()
        self._deferred_frees = []
        self._close()

    def _close(self) -> None:
        """Restore immediate frees and mark the engine idle."""
        if self._frees_deferred:
            self.env.areas.meta.free_sink = None
            self.env.areas.data.free_sink = None
            self._frees_deferred = False
        self.active = False

    def _defer_free(
        self, allocator: "BuddyAllocator", page_id: int, n_pages: int
    ) -> None:
        self._deferred_frees.append((allocator, page_id, n_pages))

    # ------------------------------------------------------------------
    # Held commits (two-phase commit's phase 1 / phase 2 split)
    # ------------------------------------------------------------------
    def hold(self) -> None:
        """Hold the commit effects of the batch run until :meth:`take_held`.

        The batch still executes and charges normally, but its root
        pokes, descriptor flushes, and frees are captured (see
        :class:`HeldCommit`) rather than applied; collect them with
        :meth:`take_held` and release with :meth:`apply_held` once the
        global decision is durable.  Frees are force-deferred while
        holding, fault injector armed or not.
        """
        if self._hold:
            raise InvalidArgumentError("held batches do not nest")
        if self.active:
            raise InvalidArgumentError(
                "cannot enter hold mode inside an open batch"
            )
        self._hold = True
        self._held = None

    def take_held(self) -> HeldCommit | None:
        """Leave hold mode; the captured commit of the held batch.

        ``None`` when no batch committed under the hold (it failed).
        Call it on every exit from the held batch, failed or not, so
        hold mode never outlives it.
        """
        self._hold = False
        held = self._held
        self._held = None
        return held

    def apply_held(self, held: HeldCommit) -> None:
        """Release a held commit (see :meth:`_apply`)."""
        self._apply(held.roots, held.descriptors, held.frees)

    @staticmethod
    def _apply(
        roots: Iterable[RootHost],
        descriptors: Iterable[tuple[DescriptorHost, DescriptorPage]],
        frees: Iterable[tuple["BuddyAllocator", int, int]],
    ) -> None:
        """Apply a commit: pokes, flushes, then charged frees.

        Each distinct root/descriptor is poked exactly once.  The pokes
        are uncharged, so they cannot fire an injected crash: a caller
        that writes its durability marker immediately before this call
        leaves no crash window between the marker and visibility.  The
        frees run last, in original order so buddy coalescing is
        deterministic; a crash during a directory writeback there lands
        after the batch-end image is already committed.
        """
        for tree in roots:
            tree.commit_root()
        for host, descriptor in descriptors:
            host.flush_descriptor(descriptor)
        for allocator, page_id, n_pages in frees:
            allocator.free(page_id, n_pages)

    # ------------------------------------------------------------------
    # Flush-intent registration (managers call these from op brackets)
    # ------------------------------------------------------------------
    def defer_root(self, tree: RootHost) -> None:
        """Queue a root poke for the batch boundary."""
        self._pending_roots[tree.root_page_id] = tree

    def defer_descriptor(
        self, host: DescriptorHost, descriptor: DescriptorPage
    ) -> None:
        """Queue a descriptor flush for the batch boundary."""
        self._pending_descriptors[descriptor.page_id] = (host, descriptor)

    # ------------------------------------------------------------------
    # Batch dispatch
    # ------------------------------------------------------------------
    def run_batch(
        self,
        manager: "LargeObjectManager",
        oid: int,
        ops: Sequence[BatchOp],
    ) -> BatchResult:
        """Execute ``ops`` against one object as a single batch.

        Invalid op kinds and payloads are rejected before anything
        executes, so the only mid-batch failures are real operation
        errors.
        """
        check_ops(ops)
        pairs = zip(itertools.repeat(oid), ops)
        tracer = self.env.tracer
        if tracer is None:
            return self._dispatch(manager, pairs)
        with tracer.span("exec.batch", ops=len(ops), scheme=manager.scheme):
            return self._dispatch(manager, pairs)

    def run_multi(
        self,
        manager: "LargeObjectManager",
        mops: Sequence[MultiOp],
    ) -> BatchResult:
        """Execute a multi-object batch against one manager.

        One batch lifecycle covers every (oid, op) pair: group commit
        dedups root pokes and descriptor flushes *across* the batch's
        objects.  The ops execute in submission order; per-op results
        and costs line up index-for-index with ``mops``, exactly as
        ``run_batch`` does for a single object.
        """
        check_ops(mop.op for mop in mops)
        tracer = self.env.tracer
        if tracer is None:
            return self._dispatch(manager, mops)
        objects = len({mop.oid for mop in mops})
        with tracer.span(
            "exec.multi",
            ops=len(mops),
            objects=objects,
            scheme=manager.scheme,
        ):
            return self._dispatch(manager, mops)

    def _dispatch(
        self,
        manager: "LargeObjectManager",
        pairs: Iterable[tuple[int, BatchOp]],
    ) -> BatchResult:
        """Run ``(oid, op)`` pairs as one batch, pricing each from the ledger.

        An op's cost is the ledger's call and page counts after it minus
        before it, times the cost constants — the arithmetic of
        ``IOStats.delta(...).elapsed_ms(...)`` without the two snapshot
        records per op.
        """
        results: list["Payload | None"] = []
        costs: list[float] = []
        stats = self.env.cost.stats
        config = self.env.config
        seek = config.seek_ms
        transfer = config.transfer_ms_per_page
        if not self.begin():
            raise InvalidArgumentError("op batches do not nest")
        try:
            for oid, op in pairs:
                kind = op.kind
                calls = stats.read_calls + stats.write_calls
                pages = stats.pages_read + stats.pages_written
                if kind == READ:
                    results.append(manager.read(oid, op.offset, op.nbytes))
                elif kind == INSERT:
                    manager.insert(oid, op.offset, op.data)
                    results.append(None)
                elif kind == DELETE:
                    manager.delete(oid, op.offset, op.nbytes)
                    results.append(None)
                elif kind == APPEND:
                    manager.append(oid, op.data)
                    results.append(None)
                else:  # REPLACE (kinds were validated up front)
                    assert kind == REPLACE
                    manager.replace(oid, op.offset, op.data)
                    results.append(None)
                costs.append((
                    stats.read_calls + stats.write_calls - calls
                ) * seek + (
                    stats.pages_read + stats.pages_written - pages
                ) * transfer)
        except BaseException:
            # On error nothing reaches the disk (see abort).
            self.abort()
            raise
        self.commit()
        return BatchResult(tuple(results), tuple(costs))


def check_ops(ops: Iterable[BatchOp]) -> None:
    """Reject any op whose kind or payload a batch cannot execute."""
    for op in ops:
        if op.kind not in OP_KINDS:
            raise InvalidArgumentError(
                f"unknown batch op kind {op.kind!r}; "
                f"expected one of {sorted(OP_KINDS)}"
            )
        check_payload(op.data)
