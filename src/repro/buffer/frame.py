"""Buffer frame: one page slot in the buffer pool."""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.payload import Payload


@dataclasses.dataclass(slots=True)
class Frame:
    """A single buffer-pool frame holding one disk page.

    Attributes
    ----------
    page_id:
        The disk page currently cached in this frame.
    data:
        Page content — real ``bytes`` or a length-only
        :class:`~repro.core.payload.SizedPayload` for phantom pages.
        May be ``None`` for pages cached with no content at all.
    dirty:
        True if the cached content is newer than the on-disk copy.
    pin_count:
        Number of outstanding fixes; a pinned frame cannot be evicted.
    record:
        Whether writebacks of this page should record content on the
        simulated disk (False for phantom leaf-data pages).
    provider:
        Optional callable producing current page content lazily at
        writeback time.  Used by the buddy allocator so directory pages
        are serialized only when they actually reach disk, and for a
        clean index page whose image the disk has not built yet.

    Recency for LRU victim selection is the pool's insertion order (its
    ``OrderedDict`` of frames), not a per-frame counter.
    """

    page_id: int
    data: Payload | None = None
    dirty: bool = False
    pin_count: int = 0
    record: bool = True
    provider: Callable[[], bytes] | None = None

    def content(self) -> Payload:
        """Current content, preferring the lazy provider when set."""
        if self.provider is not None:
            return self.provider()
        return self.data if self.data is not None else b""
