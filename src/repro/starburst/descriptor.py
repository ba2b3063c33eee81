"""The Starburst long field descriptor (Section 2.2).

The descriptor contains the size of the first and last segment and an
array of pointers to all segments allocated to the long field; the sizes
of intermediate segments are implicitly given by the size of the first
segment and the known pattern of growth (doubling, capped at the maximum
segment size).  We serialize it to one descriptor page, which bounds the
number of segments — and hence, as in the real system, the maximum long
field size.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from typing import Callable

from repro.core.config import SystemConfig
from repro.core.errors import (
    InvalidArgumentError,
    LongFieldTooLargeError,
    StorageCorruptionError,
)

_HEADER = struct.Struct("<4sIIIQI")  # magic, n, first_alloc, last_alloc, total, pad
_POINTER = struct.Struct("<I")
_MAGIC = b"SBLF"


@dataclasses.dataclass
class Segment:
    """One extent of the long field.

    ``used_bytes`` equals the full capacity for every segment except the
    last one, which may be partially full (and, while the field is being
    built, may carry untrimmed allocation slack).
    """

    page_id: int
    alloc_pages: int
    used_bytes: int

    def used_pages(self, page_size: int) -> int:
        """Pages containing useful bytes."""
        return -(-self.used_bytes // page_size)

    def capacity(self, page_size: int) -> int:
        """Bytes the allocated pages can hold."""
        return self.alloc_pages * page_size


def pattern_pages(first_alloc: int, index: int, max_pages: int) -> int:
    """Size in pages of the ``index``-th segment of the growth pattern.

    Successive segments double in size until the maximum segment size is
    reached; then a sequence of maximum-size segments follows.
    """
    if first_alloc < 1 or index < 0:
        raise InvalidArgumentError("bad pattern arguments")
    doubled = first_alloc << index
    return min(doubled, max_pages)


def _image(page_size: int, n: int, first: int, last: int, total: int,
           pointers: list[int]) -> bytes:
    """Pack a descriptor page from the values :meth:`snapshot` took."""
    parts = [_HEADER.pack(_MAGIC, n, first, last, total, 0)]
    parts.extend([_POINTER.pack(pointer) for pointer in pointers])
    return b"".join(parts).ljust(page_size, b"\x00")


class LongFieldDescriptor:
    """In-memory descriptor plus its one-page serialized form."""

    def __init__(self, page_id: int, config: SystemConfig) -> None:
        self.page_id = page_id
        self.config = config
        self.segments: list[Segment] = []

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Current long field size."""
        return sum(segment.used_bytes for segment in self.segments)

    @property
    def first_alloc_pages(self) -> int:
        """Anchor of the growth pattern (size of the first segment)."""
        return self.segments[0].alloc_pages if self.segments else 0

    def max_segments(self) -> int:
        """Segment pointers that fit in the descriptor page."""
        return (self.config.page_size - _HEADER.size) // _POINTER.size

    def pattern_pages_at(self, index: int) -> int:
        """Pattern size for the segment at ``index``."""
        return pattern_pages(
            self.first_alloc_pages or 1, index, self.config.max_segment_pages
        )

    def locate(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to (segment index, offset within segment).

        One pass over the segments: an offset that no segment holds is
        found out by running off their end, not by summing them first.
        """
        within = offset
        if within >= 0:
            for index, segment in enumerate(self.segments):
                if within < segment.used_bytes:
                    return index, within
                within -= segment.used_bytes
        raise StorageCorruptionError(
            f"offset {offset} outside field of {self.total_bytes} bytes"
        )

    def check_capacity(self, n_segments: int) -> None:
        """Raise if the descriptor cannot reference ``n_segments`` segments."""
        if n_segments > self.max_segments():
            raise LongFieldTooLargeError(
                f"long field needs {n_segments} segments but the descriptor "
                f"page holds at most {self.max_segments()} pointers"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def snapshot(self, data_base: int) -> Callable[[], bytes]:
        """A builder of the page image as the descriptor is now: the
        header's values and a copy of the pointers.  A descriptor that
        is too large is refused now, before anything is built."""
        segments = self.segments
        n = len(segments)
        self.check_capacity(n)
        return functools.partial(
            _image, self.config.page_size, n,
            segments[0].alloc_pages if n else 0,
            segments[-1].alloc_pages if n else 0, self.total_bytes,
            [segment.page_id - data_base for segment in segments],
        )

    @classmethod
    def deserialize(
        cls, data: bytes, page_id: int, config: SystemConfig, data_base: int
    ) -> "LongFieldDescriptor":
        """Rebuild the descriptor from page content.

        Intermediate segment sizes are reconstructed from the growth
        pattern, exactly as the real descriptor implies them.
        """
        magic, n, first, last, total, _pad = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise StorageCorruptionError("not a long field descriptor page")
        descriptor = cls(page_id, config)
        page_size = config.page_size
        remaining = total
        for index in range(n):
            (pointer,) = _POINTER.unpack_from(
                data, _HEADER.size + index * _POINTER.size
            )
            if index == n - 1:
                alloc = last
                used = remaining
            else:
                alloc = pattern_pages(first, index, config.max_segment_pages)
                used = alloc * page_size
            remaining -= used
            descriptor.segments.append(
                Segment(
                    page_id=data_base + pointer,
                    alloc_pages=alloc,
                    used_bytes=used,
                )
            )
        if remaining:
            raise StorageCorruptionError("descriptor byte counts inconsistent")
        return descriptor

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify fullness and pattern properties; for tests."""
        page_size = self.config.page_size
        for index, segment in enumerate(self.segments[:-1]):
            assert segment.used_bytes == segment.capacity(page_size), (
                f"intermediate segment {index} is not full"
            )
            assert segment.alloc_pages == self.pattern_pages_at(index), (
                f"segment {index} breaks the growth pattern"
            )
        if self.segments:
            final = self.segments[-1]
            assert final.used_bytes <= final.capacity(page_size), (
                "last segment overflows its allocation"
            )
            assert final.used_bytes > 0, "empty trailing segment"
