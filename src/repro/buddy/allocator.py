"""Disk space allocation for one database area (Section 3.1).

A database area consists of a number of *buddy spaces*.  Each buddy space
is a fixed-length sequence of physically adjacent blocks plus a one-block
directory holding allocation information for all blocks in the space.
Segments are always allocated within a single buddy space, so their pages
are physically adjacent.

A main-memory *superdirectory* records, per buddy space, the size (order)
of the largest free segment believed to be available there.  It starts
optimistic — every space is assumed to hold a maximal free segment — and
is corrected as directories are actually visited, so that on steady state
an allocation or deallocation touches at most one directory block.

Directory blocks are accessed through the buffer pool, so repeated
allocations from the same space usually hit in the pool; directory page
content is produced lazily (only when the page is actually written back).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from repro.buddy.directory import check_directory_fits, serialize_directory
from repro.buddy.space import BuddySpace
from repro.buffer.pool import BufferPool
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError, BufferPoolError, OutOfSpaceError
from repro.lint.contracts import refuse_in_cleanup


class BuddyAllocator:
    """Buddy-system space manager for one database area."""

    def __init__(
        self,
        config: SystemConfig,
        pool: BufferPool,
        base_page_id: int,
        name: str = "area",
    ) -> None:
        check_directory_fits(config)
        self.config = config
        self.pool = pool
        #: The disk's runtime-checks switch (see ``SimulatedDisk.checks``).
        self.checks = pool.checks
        self.base_page_id = base_page_id
        self.name = name
        #: Pages per (directory + buddy space) unit; the config is frozen,
        #: so this is computed once for the address arithmetic below.
        self._stride_pages = 1 + config.buddy_space_blocks
        self._spaces: list[BuddySpace] = []
        #: Superdirectory: believed order of the largest free extent per space.
        self._superdirectory: list[int] = []
        #: Per space, the lazy content provider of its directory page.
        self._providers: list[Callable[[], bytes]] = []
        #: Batch-engine hook: while a fault injector is armed inside an
        #: op batch, frees are journaled here and applied at the batch
        #: boundary (after the group commit), so a mid-batch crash can
        #: never have recycled a page the committed image still
        #: references.  ``None`` — the overwhelmingly common case —
        #: frees immediately.
        self.free_sink: (
            Callable[["BuddyAllocator", int, int], None] | None
        ) = None

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def _directory_page(self, space_index: int) -> int:
        return self.base_page_id + space_index * self._stride_pages

    def _data_base(self, space_index: int) -> int:
        return self._directory_page(space_index) + 1

    def _locate(self, page_id: int) -> tuple[int, int]:
        """Map a global page id to (space index, block offset in space)."""
        relative = page_id - self.base_page_id
        if relative < 0:
            raise AllocationError(f"page {page_id} is not in area {self.name!r}")
        space_index, within = divmod(relative, self._stride_pages)
        if space_index >= len(self._spaces) or within == 0:
            raise AllocationError(
                f"page {page_id} is not a data page of area {self.name!r}"
            )
        return space_index, within - 1

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------
    def allocate(self, n_pages: int) -> int:
        """Allocate a segment of ``n_pages`` physically adjacent pages.

        Returns the global page id of the segment's first page.  The area
        grows by a new buddy space when no existing space can satisfy the
        request.
        """
        if self.checks:
            refuse_in_cleanup(f"{self.name}.allocate({n_pages})")
        if n_pages <= 0:
            raise AllocationError("segment size must be positive")
        if n_pages > self.config.max_segment_pages:
            raise AllocationError(
                f"segment of {n_pages} pages exceeds the maximum of "
                f"{self.config.max_segment_pages} pages"
            )
        needed_order = (n_pages - 1).bit_length()  # ceil(log2), n_pages > 0
        superdirectory = self._superdirectory
        stride = self._stride_pages
        data_base = self.base_page_id + 1
        for index in range(len(superdirectory)):
            if superdirectory[index] < needed_order:
                continue
            offset = self._try_allocate_in_space(index, n_pages, needed_order)
            if offset is not None:
                return data_base + index * stride + offset
        index = self._add_space()
        offset = self._try_allocate_in_space(index, n_pages, needed_order)
        if offset is None:  # pragma: no cover - a fresh space always fits
            raise OutOfSpaceError("freshly created buddy space cannot fit segment")
        return data_base + index * stride + offset

    def free(self, page_id: int, n_pages: int) -> None:
        """Free ``n_pages`` pages starting at ``page_id``.

        Any sub-range of previous allocations may be freed (partial free).
        Resident copies of the freed pages are invalidated and their
        content discarded.  With a :attr:`free_sink` installed (a
        fault-armed batch), the free is journaled instead and applied at
        the batch boundary.
        """
        if self.checks:
            refuse_in_cleanup(f"{self.name}.free({page_id}, {n_pages})")
        if n_pages <= 0:
            raise AllocationError("free size must be positive")
        sink = self.free_sink
        if sink is not None:
            sink(self, page_id, n_pages)
            return
        space_index, offset = self._locate(page_id)
        space = self._spaces[space_index]
        if offset + n_pages > space.total_blocks:
            raise AllocationError("free range crosses a buddy space boundary")
        # Reject a bad free while the pages it names are still intact:
        # past this check the resident copies and the content are gone.
        # (The map itself changes after them, after the directory touch:
        # touching first could evict a frame the invalidation is about to
        # drop for nothing, which is a different simulated I/O count.)
        space.check_allocated(offset, n_pages)
        pool = self.pool
        directory_page = self.base_page_id + space_index * self._stride_pages
        # Likewise a directory visit the pool must refuse: with every
        # frame pinned, the invalidation below can drop no frame, so the
        # directory's miss would find no room.
        if pool.headroom == 0 and not pool.is_resident(directory_page):
            raise BufferPoolError("all buffer frames are pinned")
        pool.invalidate_run(page_id, n_pages)
        pool.disk.discard_pages(page_id, n_pages)
        # A free always changes the space's state: the directory page is
        # touched dirty.
        pool.access(directory_page, self._providers[space_index])
        space.free_range(offset, n_pages)
        self._superdirectory[space_index] = space._order_mask.bit_length() - 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def allocated_pages(self) -> int:
        """Data pages currently allocated across all buddy spaces."""
        return sum(space.allocated_blocks for space in self._spaces)

    @property
    def total_blocks(self) -> int:
        """Data pages across all buddy spaces, allocated or free."""
        return sum(space.total_blocks for space in self._spaces)

    def allocated_page_ids(self) -> Iterator[int]:
        """Every allocated data page id, in ascending order."""
        for index, space in enumerate(self._spaces):
            base = self._data_base(index)
            for offset in range(space.total_blocks):
                if space.is_block_allocated(offset):
                    yield base + offset

    def is_allocated(self, page_id: int) -> bool:
        """True when ``page_id`` is an allocated data page of this area."""
        try:
            space_index, offset = self._locate(page_id)
        except AllocationError:
            return False
        return self._spaces[space_index].is_block_allocated(offset)

    @property
    def directory_pages(self) -> int:
        """Number of directory pages (one per buddy space)."""
        return len(self._spaces)

    @property
    def space_count(self) -> int:
        """Number of buddy spaces in the area."""
        return len(self._spaces)

    def superdirectory_entry(self, space_index: int) -> int:
        """Believed max-free order for the space (for tests/inspection)."""
        return self._superdirectory[space_index]

    def check_invariants(self) -> None:
        """Verify every buddy space's internal consistency."""
        for space in self._spaces:
            space.check_invariants()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _try_allocate_in_space(
        self, index: int, n_pages: int, needed_order: int
    ) -> int | None:
        """Visit a space's directory and try to allocate there.

        One touch of the directory page, dirty exactly when the space
        fits the request (an allocation always changes the directory);
        the superdirectory is corrected either way.
        """
        space = self._spaces[index]
        page_id = self.base_page_id + index * self._stride_pages
        offset: int | None = None
        # The largest free order is the top bit of the space's
        # free-list index.
        if space._order_mask.bit_length() - 1 >= needed_order:
            self.pool.access(page_id, self._providers[index])
            offset = space.allocate(n_pages)
        else:
            self.pool.access(page_id)
        self._superdirectory[index] = space._order_mask.bit_length() - 1
        return offset

    def _add_space(self) -> int:
        """Grow the area by one buddy space; returns its index.

        The directory frame is taken first, so a pool that must refuse it
        refuses before the area grows.
        """
        index = len(self._spaces)
        page_id = self._directory_page(index)
        space = BuddySpace(self.config.buddy_space_order)
        provider = partial(serialize_directory, space)
        self.pool.access_new(page_id, provider)
        self._spaces.append(space)
        self._superdirectory.append(space.order)
        self._providers.append(provider)
        return index
