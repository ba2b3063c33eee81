"""Serialization of a buddy space's allocation state to its directory block.

Each buddy space keeps "a 1-block directory that provides allocation
information for all blocks in that space" (Section 3.1).  We persist a
small header followed by the 1-bit-per-block allocation bitmap; with the
default configuration (2**14 blocks per space) the bitmap is 2 KB and fits
comfortably in one 4 KB directory page.
"""

from __future__ import annotations

import struct

from repro.buddy.space import BuddySpace
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError, StorageCorruptionError

#: magic, order  (magic guards against reading a non-directory page)
_HEADER = struct.Struct("<4sI")
_MAGIC = b"BDIR"


def directory_bytes_needed(order: int) -> int:
    """Size in bytes of a serialized directory for a space of ``order``."""
    return _HEADER.size + (-(-(1 << order) // 8))


def check_directory_fits(config: SystemConfig) -> None:
    """Raise if the configured space order needs more than one page."""
    needed = directory_bytes_needed(config.buddy_space_order)
    if needed > config.page_size:
        raise ConfigurationError(
            f"buddy space directory needs {needed} bytes but pages are "
            f"{config.page_size} bytes; lower buddy_space_order"
        )


def serialize_directory(space: BuddySpace) -> bytes:
    """Encode the space's allocation bitmap as directory-page content."""
    return _HEADER.pack(_MAGIC, space.order) + space.bitmap.to_bytes(
        -(-space.total_blocks // 8), "little"
    )


def deserialize_directory(data: bytes) -> BuddySpace:
    """Rebuild a :class:`BuddySpace` from directory-page content.

    The buddy free lists are reconstructed from the bitmap by releasing
    every maximal free run, which re-coalesces buddies automatically.
    """
    if len(data) < _HEADER.size:
        raise StorageCorruptionError("directory page too short")
    magic, order = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise StorageCorruptionError("directory page has wrong magic")
    bitmap_len = -(-(1 << order) // 8)
    bitmap = data[_HEADER.size : _HEADER.size + bitmap_len]
    if len(bitmap) < bitmap_len:
        raise StorageCorruptionError("directory bitmap truncated")

    space = BuddySpace(order)
    # Start from a fully free space and allocate the used runs in
    # ascending order; allocating run-by-run keeps free lists exact.
    rest = int.from_bytes(bitmap, "little") & ((1 << space.total_blocks) - 1)
    block = 0
    while rest:
        skip = (rest & -rest).bit_length() - 1  # free blocks before the run
        rest >>= skip
        run = (~rest & (rest + 1)).bit_length() - 1  # its trailing one bits
        _allocate_exact_run(space, block + skip, run)
        rest >>= run
        block += skip + run
    return space


def _allocate_exact_run(space: BuddySpace, offset: int, n_blocks: int) -> None:
    """Force-allocate an exact run (used only when rebuilding from disk)."""
    # Decompose the run into aligned power-of-two chunks and carve each out
    # of the free lists by splitting; this mirrors BuddySpace._release_range.
    space.bitmap |= ((1 << n_blocks) - 1) << offset
    space._free_blocks -= n_blocks
    end = offset + n_blocks
    while offset < end:
        align = (offset & -offset).bit_length() - 1 if offset else space.order
        k = min(align, (end - offset).bit_length() - 1)
        _carve(space, offset, k)
        offset += 1 << k


def _carve(space: BuddySpace, offset: int, k: int) -> None:
    """Remove the specific extent (offset, 2**k) from the space's free lists."""
    # Find the enclosing free extent.
    j = k
    while j <= space.order:
        base = offset & ~((1 << j) - 1)
        if base in space._free_sets[j]:
            break
        j += 1
    else:
        raise StorageCorruptionError("bitmap marks an unallocatable block used")
    free_sets = space._free_sets
    free_sets[j].discard(base)
    if not free_sets[j]:
        space._order_mask &= ~(1 << j)
    # Split down, keeping the halves that do not contain our extent free.
    while j > k:
        j -= 1
        half_with_target = offset & ~((1 << j) - 1)
        other_half = base if half_with_target != base else base + (1 << j)
        free_sets[j].add(other_half)
        space._order_mask |= 1 << j
        base = half_with_target
