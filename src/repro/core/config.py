"""System configuration shared by every component of the simulation.

The defaults reproduce Table 1 of the paper:

============================  =====================
Parameter                     Value
============================  =====================
Page (block) size             4 KB
Buffer pool size              12 pages
Largest segment in pool       4 pages
I/O seek cost                 33 milliseconds
I/O transfer rate             1 KB / millisecond
============================  =====================

Index-page fanouts follow Section 4.1: with 4-byte counts and 4-byte
pointers, a 4 KB root page holds up to 507 (count, pointer) pairs and an
internal index page holds 511 pairs.  The header sizes below are chosen so
those fanouts fall out of the arithmetic rather than being hard-coded;
smaller page sizes (used extensively in the tests) scale down consistently.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError, InvalidArgumentError
import dataclasses

#: Bytes occupied by one (count, pointer) pair in an index page (4 + 4).
PAIR_BYTES = 8

#: Header bytes reserved in the root page (object header + tree metadata).
#: 4096 - 40 = 4056 -> 507 pairs, matching Section 4.1.
ROOT_HEADER_BYTES = 40

#: Header bytes reserved in a non-root index page.
#: 4096 - 8 = 4088 -> 511 pairs, matching Section 4.1.
NODE_HEADER_BYTES = 8


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Immutable bundle of the fixed system parameters (paper Table 1).

    Parameters
    ----------
    page_size:
        Disk page (block) size in bytes.
    buffer_pool_pages:
        Number of page frames in the buffer pool.
    max_buffered_segment_pages:
        Largest segment (in pages) that the buffer manager will read into
        the pool in one step; larger segments bypass the pool (Section 3.2).
        0 buffers nothing, ``buffer_pool_pages`` everything that fits.
    seek_ms:
        Cost in milliseconds charged once per physical I/O call
        (seek + rotational delay).
    transfer_kb_per_ms:
        Sequential transfer rate in kilobytes per millisecond.
    buddy_space_order:
        Each buddy space manages ``2**buddy_space_order`` data blocks plus a
        one-page directory (Section 3.1).
    max_segment_order:
        Largest segment the buddy system will hand out is
        ``2**max_segment_order`` blocks (32 MB with 4 KB pages, as in the
        paper).
    staging_buffer_bytes:
        Size of the virtual-memory staging buffer through which Starburst
        copies segments during length-changing updates (Section 3.5).
    """

    page_size: int = 4096
    buffer_pool_pages: int = 12
    max_buffered_segment_pages: int = 4
    seek_ms: float = 33.0
    transfer_kb_per_ms: float = 1.0
    buddy_space_order: int = 14
    max_segment_order: int = 13
    staging_buffer_bytes: int = 512 * 1024

    def __post_init__(self) -> None:
        if self.page_size < 64:
            raise ConfigurationError("page_size must be at least 64 bytes")
        if self.page_size & (self.page_size - 1):
            raise ConfigurationError("page_size must be a power of two")
        if self.buffer_pool_pages < 1:
            raise ConfigurationError("buffer_pool_pages must be positive")
        if self.max_buffered_segment_pages < 0:
            raise ConfigurationError(
                "max_buffered_segment_pages must not be negative"
            )
        if self.max_segment_order > self.buddy_space_order:
            raise ConfigurationError(
                "max_segment_order cannot exceed buddy_space_order: a segment "
                "must fit inside one buddy space"
            )
        if self.staging_buffer_bytes < self.page_size:
            raise ConfigurationError("staging buffer must hold at least one page")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def transfer_ms_per_page(self) -> float:
        """Milliseconds to transfer one page at the configured rate."""
        return (self.page_size / 1024.0) / self.transfer_kb_per_ms

    @property
    def root_fanout(self) -> int:
        """Maximum number of (count, pointer) pairs in the root page."""
        return (self.page_size - ROOT_HEADER_BYTES) // PAIR_BYTES

    @property
    def node_fanout(self) -> int:
        """Maximum number of (count, pointer) pairs in a non-root index page."""
        return (self.page_size - NODE_HEADER_BYTES) // PAIR_BYTES

    @property
    def buddy_space_blocks(self) -> int:
        """Number of data blocks managed by one buddy space."""
        return 1 << self.buddy_space_order

    @property
    def max_segment_pages(self) -> int:
        """Largest segment, in pages, the buddy system will allocate."""
        return 1 << self.max_segment_order

    def pages_for_bytes(self, nbytes: int) -> int:
        """Number of pages needed to store ``nbytes`` bytes (ceiling)."""
        if nbytes < 0:
            raise InvalidArgumentError("nbytes must be non-negative")
        return -(-nbytes // self.page_size)


#: Configuration used throughout the paper's experiments (Table 1).
PAPER_CONFIG = SystemConfig()


def small_page_config(page_size: int = 128, **overrides: object) -> SystemConfig:
    """A configuration with tiny pages, convenient for unit tests.

    Byte-level behaviour (splits, shuffles, boundary I/O) shows up with far
    smaller objects when pages are small, which keeps tests fast.
    """
    defaults: dict[str, object] = {
        "page_size": page_size,
        "buddy_space_order": 9,
        "max_segment_order": 7,
        "staging_buffer_bytes": 8 * page_size,
    }
    defaults.update(overrides)
    return SystemConfig(**defaults)  # type: ignore[arg-type]
