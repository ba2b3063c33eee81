"""A single buddy space: ``2**order`` physically adjacent blocks.

Space inside a buddy space is managed by the classic binary buddy system
(Knuth; Koch 1987): free extents come in power-of-two sizes aligned to
their size, a free extent can be split in two halves, and two free buddy
halves coalesce back into their parent.

Two properties required by the paper (Section 3.1) go beyond the textbook
scheme:

* *Precision of one block*: a client may request any number of blocks; the
  space allocates the covering power of two and immediately trims (frees)
  the unused right end, exactly like Starburst's "last segment is trimmed".
* *Partial free*: a client may free any sub-range of a previously allocated
  segment, not necessarily the whole segment.

The allocation state also maintains the 1-bit-per-block bitmap that is
persisted in the space's one-page directory block.  The bitmap is one
Python ``int``, so a run of any length is allocated, freed or checked
with a single mask operation instead of a loop over its blocks.
"""

from __future__ import annotations

from repro.core.errors import (
    AllocationError,
    InvalidArgumentError,
    OutOfSpaceError,
)


class BuddySpace:
    """Binary-buddy manager of ``2**order`` blocks, offsets 0-based."""

    def __init__(self, order: int) -> None:
        if order < 0:
            raise InvalidArgumentError("order must be non-negative")
        self.order = order
        self.total_blocks = 1 << order
        #: free_sets[k] holds offsets of free extents of size 2**k.
        self._free_sets: list[set[int]] = [set() for _ in range(order + 1)]
        self._free_sets[order].add(0)
        #: Bit ``k`` set iff ``_free_sets[k]`` is non-empty: the free-list
        #: index that makes best-fit lookups O(1) bit arithmetic instead of
        #: a scan over every order.
        self._order_mask = 1 << order
        self._free_blocks = self.total_blocks
        #: Bit ``b`` set iff block ``b`` is allocated.
        self.bitmap = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Total number of currently free blocks."""
        return self._free_blocks

    @property
    def allocated_blocks(self) -> int:
        """Total number of currently allocated blocks."""
        return self.total_blocks - self._free_blocks

    def is_block_allocated(self, offset: int) -> bool:
        """True if the block at ``offset`` is currently allocated."""
        self._check_offset(offset)
        return bool(self.bitmap >> offset & 1)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, n_blocks: int) -> int:
        """Allocate ``n_blocks`` physically adjacent blocks.

        The covering power of two is allocated and the unused tail is
        trimmed back to the free lists.  Returns the offset of the first
        block.  Raises :class:`OutOfSpaceError` if no extent is large
        enough.
        """
        if n_blocks <= 0:
            raise AllocationError("allocation size must be positive")
        if n_blocks > self.total_blocks:
            raise OutOfSpaceError(
                f"segment of {n_blocks} blocks exceeds space of "
                f"{self.total_blocks} blocks"
            )
        k = (n_blocks - 1).bit_length()  # ceil(log2); positivity checked
        offset = self._take_extent(k)
        if offset is None:
            raise OutOfSpaceError(
                f"no free extent of order {k} in this buddy space"
            )
        surplus = (1 << k) - n_blocks
        self.bitmap |= ((1 << n_blocks) - 1) << offset
        self._free_blocks -= n_blocks
        if surplus:
            # Trim: hand the unused right end straight back.
            self._release_range(offset + n_blocks, surplus)
        return offset

    def check_allocated(self, offset: int, n_blocks: int) -> None:
        """Raise unless the range lies in the space and is all allocated."""
        if n_blocks <= 0:
            raise AllocationError("free size must be positive")
        self._check_offset(offset)
        if offset + n_blocks > self.total_blocks:
            raise AllocationError("free range extends past end of space")
        run = (1 << n_blocks) - 1
        allocated = self.bitmap >> offset & run
        if allocated != run:
            free = allocated ^ run
            first = offset + (free & -free).bit_length() - 1
            raise AllocationError(f"block {first} is already free")

    def free_range(self, offset: int, n_blocks: int) -> None:
        """Free ``n_blocks`` blocks starting at ``offset``.

        The range must be entirely allocated.  It may be any sub-range of
        one or more previous allocations (partial free is allowed).
        """
        self.check_allocated(offset, n_blocks)
        self.bitmap ^= ((1 << n_blocks) - 1) << offset
        self._free_blocks += n_blocks
        self._release_range(offset, n_blocks)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take_extent(self, k: int) -> int | None:
        """Remove and return a free extent of order ``k``, splitting larger
        extents as needed; ``None`` if nothing large enough is free.

        The smallest adequate order is found from the free-list index with
        one bit operation (lowest set bit at or above ``k``) rather than
        probing each order's set.
        """
        candidates = self._order_mask >> k
        if not candidates:
            return None
        j = k + (candidates & -candidates).bit_length() - 1
        free_sets = self._free_sets
        extents = free_sets[j]
        offset = extents.pop()
        # Micro-batched index maintenance: the whole split cascade edits
        # a local mask and stores it once at the end.
        mask = self._order_mask
        if not extents:
            mask &= ~(1 << j)
        while j > k:
            j -= 1
            # Split: keep the left half, free the right half.
            free_sets[j].add(offset + (1 << j))
            mask |= 1 << j
        self._order_mask = mask
        return offset

    def _release_range(self, offset: int, n_blocks: int) -> None:
        """Return an arbitrary range to the free lists as aligned extents.

        ``_free_blocks`` must already reflect the range being free.  The
        coalescing cascades of the whole range are micro-batched: every
        extent's cascade edits one local copy of the order mask and the
        result is stored back in a single write, instead of a mask
        load/store per coalescing level (the batch-free hot path inside
        a shard frees whole runs of leaf segments at once).
        """
        free_sets = self._free_sets
        order = self.order
        mask = self._order_mask
        while n_blocks > 0:
            align = (offset & -offset).bit_length() - 1 if offset else order
            k = min(align, n_blocks.bit_length() - 1)
            step = 1 << k
            start = offset
            # Coalescing cascade against the local mask.
            while k < order:
                buddy = start ^ (1 << k)
                extents = free_sets[k]
                if buddy not in extents:
                    break
                extents.discard(buddy)
                if not extents:
                    mask &= ~(1 << k)
                if buddy < start:
                    start = buddy
                k += 1
            free_sets[k].add(start)
            mask |= 1 << k
            offset += step
            n_blocks -= step
        self._order_mask = mask

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.total_blocks:
            raise AllocationError(
                f"block offset {offset} outside space of {self.total_blocks} blocks"
            )

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on violation."""
        seen = 0
        free_from_lists = 0
        for k, extents in enumerate(self._free_sets):
            for offset in extents:
                assert offset % (1 << k) == 0, "free extent misaligned"
                run = ((1 << (1 << k)) - 1) << offset
                assert not seen & run, "overlapping free extents"
                seen |= run
                assert not self.bitmap & run, (
                    "free-list block marked allocated in bitmap"
                )
                free_from_lists += 1 << k
                if k < self.order:
                    buddy = offset ^ (1 << k)
                    assert buddy not in self._free_sets[k], "uncoalesced buddies"
        assert free_from_lists == self._free_blocks, "free count drift"
        bitmap_allocated = bin(self.bitmap).count("1")
        assert bitmap_allocated == self.allocated_blocks, "bitmap count drift"
        expected_mask = 0
        for k, extents in enumerate(self._free_sets):
            if extents:
                expected_mask |= 1 << k
        assert expected_mask == self._order_mask, "free-list order index drift"
