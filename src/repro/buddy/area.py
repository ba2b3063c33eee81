"""Database areas (Section 4.1).

The paper's database is set up in two areas, both managed by the buddy
system: one for the leaf segments holding the bytes of large objects, and
a second for everything else (index pages, roots, directories).  This
mirrors the paper's trick of letting the leaf area be simulated without
storing actual bytes while keeping everything else real.
"""

from __future__ import annotations

import dataclasses

from repro.buddy.allocator import BuddyAllocator
from repro.buffer.pool import BufferPool
from repro.core.config import SystemConfig

#: Page-id bases keep the two areas in disjoint regions of the page-id space.
META_AREA_BASE = 0
DATA_AREA_BASE = 1 << 40


@dataclasses.dataclass
class DatabaseAreas:
    """The pair of buddy-managed areas used by every storage manager.

    Attributes
    ----------
    meta:
        Area holding index pages, object roots, and buddy directories.
    data:
        Area holding leaf segments (the large-object bytes themselves).
    record_leaf_data:
        Whether leaf-segment content is recorded on the simulated disk.
        Tests use ``True`` to verify byte-level correctness; benchmarks use
        ``False`` (the paper's phantom leaf area) for speed.
    """

    meta: BuddyAllocator
    data: BuddyAllocator
    record_leaf_data: bool = True

    @classmethod
    def create(
        cls,
        config: SystemConfig,
        pool: BufferPool,
        record_leaf_data: bool = True,
    ) -> "DatabaseAreas":
        """Create the standard meta + data area pair."""
        meta = BuddyAllocator(config, pool, META_AREA_BASE, name="meta")
        data = BuddyAllocator(config, pool, DATA_AREA_BASE, name="data")
        return cls(meta=meta, data=data, record_leaf_data=record_leaf_data)

    def check_invariants(self) -> None:
        """Verify both areas' buddy structures."""
        self.meta.check_invariants()
        self.data.check_invariants()
