"""The Starburst long field manager (Sections 2.2 and 3.5).

Long fields are stored in segments that double in size until the maximum
segment size is reached (when the eventual size is unknown); a long field
created with its content known in advance uses maximum-size segments.  In
either case the last segment is trimmed.

Search and append are straightforward.  Byte inserts and deletes in the
middle of the field cannot be handled gracefully: the segments to the
right of — and, because of shadowing, including — the segment holding the
start byte are read, and the surviving bytes together with any new ones
are placed into a new set of segments.  The copy streams through a fixed
virtual-memory staging buffer (512 KB in the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.buddy.area import DATA_AREA_BASE
from repro.core.env import StorageEnvironment
from repro.core.manager import ImageExtent, LargeObjectManager
from repro.core.payload import (
    Payload,
    payload_bytes,
    payload_concat,
    payload_view,
)
from repro.starburst.descriptor import (
    LongFieldDescriptor,
    Segment,
)


@dataclasses.dataclass(frozen=True)
class StarburstOptions:
    """Client-visible knobs of the Starburst long field manager."""

    #: Cap on segment size in pages; None uses the system maximum.
    max_segment_pages: int | None = None


class StarburstManager(LargeObjectManager):
    """Starburst long field manager over a :class:`StorageEnvironment`."""

    scheme = "starburst"

    def __init__(
        self, env: StorageEnvironment, options: StarburstOptions | None = None
    ) -> None:
        super().__init__(env)
        self.options = options or StarburstOptions()
        self._fields: dict[int, LongFieldDescriptor] = {}

    @property
    def max_segment_pages(self) -> int:
        """Largest segment the manager will allocate."""
        return self.options.max_segment_pages or self.config.max_segment_pages

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, data: Payload = b"") -> int:
        """Create a long field; known content is laid out in maximum-size
        segments with the last one trimmed (Section 2.2).
        """
        with self._op_span("create"):
            # Refused before the descriptor page is allocated.
            self._check_growth(LongFieldDescriptor(0, self.config), len(data))
            page_id = self.env.areas.meta.allocate(1)
            descriptor = LongFieldDescriptor(page_id, self.config)
            self._fields[page_id] = descriptor
            with self._op(descriptor):
                if data:
                    self._create_known_size(descriptor, data)
            return page_id

    def _create_known_size(
        self, descriptor: LongFieldDescriptor, data: Payload
    ) -> None:
        """Lay out a field whose size is known in advance: maximum-size
        segments are used to hold it, and the last segment is trimmed."""
        page_size = self.config.page_size
        capacity = self.max_segment_pages * page_size
        position = 0
        while position < len(data):
            chunk = data[position : position + capacity]
            pages = -(-len(chunk) // page_size)
            segment = self._allocate_segment(pages)
            segment.used_bytes = len(chunk)
            descriptor.segments.append(segment)
            self.env.segio.copy_staged(
                [chunk],
                self.config.staging_buffer_bytes,
                [(segment.page_id, len(chunk))],
            )
            position += len(chunk)

    def destroy(self, oid: int) -> None:
        """Free all segments and the descriptor page of the long field."""
        descriptor = self._descriptor(oid)
        with self._op_span("destroy", oid):
            for segment in descriptor.segments:
                self.env.areas.data.free(segment.page_id, segment.alloc_pages)
            self.env.areas.meta.free(descriptor.page_id, 1)
            del self._fields[oid]

    def size(self, oid: int) -> int:
        """Current long-field size in bytes, from the descriptor."""
        return self._descriptor(oid).total_bytes

    def oids(self) -> list[int]:
        """Ids of every live long field, sorted."""
        return sorted(self._fields)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read a byte range straight from the affected segments.

        The descriptor walk yields one charged run per affected segment
        and the batch engine's read loop takes them to the segment I/O
        layer.  Descriptor accesses themselves are not charged: the
        descriptor lives in the small object that owns the long field
        (Section 2.2), so like the ESM/EOS root page it costs no
        large-object I/O (Starburst's 100-byte read in Table 2 is exactly
        one data-page access).  One walk over the segments finds the runs
        and, ending at the range's end or else the field's, checks it.
        """
        descriptor = self._descriptor(oid)
        end = offset + nbytes
        runs = []
        seg_start = 0
        for segment in descriptor.segments:
            if seg_start >= end:
                break
            seg_end = seg_start + segment.used_bytes
            if seg_end > offset:
                within = offset - seg_start if offset > seg_start else 0
                take = min(seg_end, end) - seg_start - within
                runs.append((segment.page_id, within, take, 0))
            seg_start = seg_end
        if offset < 0 or nbytes < 0 or end > seg_start:
            self._check_range(oid, offset, nbytes, descriptor.total_bytes)
        if nbytes == 0:
            return b""
        with self._op_span("read", oid):
            return self.env.exec.execute_read(runs)

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes, growing the last segment by the doubling pattern."""
        descriptor = self._descriptor(oid)
        if not data:
            return
        self._check_growth(descriptor, len(data))
        with self._op_span("append", oid), self._op(descriptor):
            remaining = payload_view(data)
            if descriptor.segments:
                last = descriptor.segments[-1]
                filled = self._fill_segment(last, payload_bytes(remaining))
                remaining = remaining[filled:]
                if remaining and last.alloc_pages != self._pattern_for_last(
                    descriptor
                ):
                    # The last segment was trimmed: the descriptor's implicit
                    # sizing forces it back onto the growth pattern (a copy
                    # to a pattern-size segment) before the field can grow.
                    self._untrim_last(descriptor)
                    filled = self._fill_segment(
                        descriptor.segments[-1], payload_bytes(remaining)
                    )
                    remaining = remaining[filled:]
            while remaining:
                if descriptor.segments:
                    pages = self._pattern_for_last(descriptor,
                                                   next_segment=True)
                else:
                    # The first segment is sized by the first append; it
                    # anchors the doubling pattern.
                    pages = min(
                        self.config.pages_for_bytes(len(remaining)),
                        self.max_segment_pages,
                    )
                segment = self._allocate_segment(pages)
                descriptor.segments.append(segment)
                filled = self._fill_segment(segment, payload_bytes(remaining))
                remaining = remaining[filled:]

    def trim(self, oid: int) -> None:
        """Trim the last segment: free its unused blocks at the right end."""
        descriptor = self._descriptor(oid)
        with self._op_span("trim", oid), self._op(descriptor):
            self._trim_last(descriptor)

    # ------------------------------------------------------------------
    # Length-changing updates
    # ------------------------------------------------------------------
    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes by rewriting everything right of the insertion point
        through the staging buffer (Section 3.5).
        """
        descriptor = self._descriptor(oid)
        self._check_offset(oid, offset, descriptor.total_bytes)
        if not data:
            return
        if not descriptor.segments or offset == descriptor.total_bytes:
            self.append(oid, data)
            return
        with self._op_span("insert", oid), self._op(descriptor):
            index, within = descriptor.locate(offset)
            self._rewrite_tail(
                descriptor,
                first_index=index,
                splice_at=within,
                insert_data=data,
                delete_bytes=0,
            )

    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete bytes by rewriting the surviving tail through the staging
        buffer (Section 3.5).
        """
        descriptor = self._descriptor(oid)
        self._check_range(oid, offset, nbytes, descriptor.total_bytes)
        if nbytes == 0:
            return
        with self._op_span("delete", oid), self._op(descriptor):
            index, within = descriptor.locate(offset)
            self._rewrite_tail(
                descriptor,
                first_index=index,
                splice_at=within,
                insert_data=b"",
                delete_bytes=nbytes,
            )

    # ------------------------------------------------------------------
    # Replace
    # ------------------------------------------------------------------
    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite bytes in place, shadowing whole affected segments."""
        descriptor = self._descriptor(oid)
        self._check_range(oid, offset, len(data), descriptor.total_bytes)
        if not data:
            return
        with self._op_span("replace", oid), self._op(descriptor):
            index, within = descriptor.locate(offset)
            remaining = payload_view(data)
            while remaining:
                segment = descriptor.segments[index]
                take = min(segment.used_bytes - within, len(remaining))
                self._replace_in_segment(
                    descriptor, index, within, payload_bytes(remaining[:take])
                )
                remaining = remaining[take:]
                within = 0
                index += 1

    def _replace_in_segment(
        self,
        descriptor: LongFieldDescriptor,
        index: int,
        position: int,
        data: Payload,
    ) -> None:
        segment = descriptor.segments[index]
        if self.env.shadow.overwrite_needs_new_segment():
            content = self.env.segio.read_pages(
                segment.page_id, segment.used_pages(self.config.page_size)
            )[: segment.used_bytes]
            patched = payload_concat(
                [content[:position], data, content[position + len(data):]]
            )
            new_segment = self._allocate_segment(segment.alloc_pages)
            new_segment.used_bytes = segment.used_bytes
            self.env.segio.write_pages(new_segment.page_id, patched)
            self.env.areas.data.free(segment.page_id, segment.alloc_pages)
            descriptor.segments[index] = new_segment
        else:
            page_size = self.config.page_size
            first = position // page_size
            last = (position + len(data) - 1) // page_size
            old = self.env.segio.read_pages(
                segment.page_id + first, last - first + 1
            )
            lo = position - first * page_size
            patched = payload_concat(
                [old[:lo], data, old[lo + len(data) :]]
            )
            self.env.segio.write_pages(segment.page_id + first, patched)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def allocated_pages(self, oid: int) -> int:
        """Segment pages plus the one descriptor page."""
        descriptor = self._descriptor(oid)
        return 1 + sum(s.alloc_pages for s in descriptor.segments)

    def descriptor_of(self, oid: int) -> LongFieldDescriptor:
        """The long field descriptor (for tests and inspection)."""
        return self._descriptor(oid)

    # ------------------------------------------------------------------
    # The committed image
    # ------------------------------------------------------------------
    def image_extents(self, oid: int) -> Iterator[ImageExtent]:
        """The descriptor page, then its segments."""
        descriptor = self._image_descriptor(oid)
        yield ImageExtent(oid, self.config.page_size, 1, True)
        for segment in descriptor.segments:
            yield ImageExtent(
                segment.page_id, segment.used_bytes, segment.alloc_pages, False
            )

    def reload(self, oid: int) -> None:
        """Deserialize the descriptor page in place of the live one."""
        self._fields[oid] = self._image_descriptor(oid)

    def _image_descriptor(self, oid: int) -> LongFieldDescriptor:
        return LongFieldDescriptor.deserialize(
            self.env.disk.peek_pages(oid, 1), oid, self.config, DATA_AREA_BASE
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _descriptor(self, oid: int) -> LongFieldDescriptor:
        try:
            return self._fields[oid]
        except KeyError:
            raise self._missing(oid) from None

    def _op(self, descriptor: LongFieldDescriptor) -> _DescriptorOp:
        """The operation bracket of ``descriptor`` (see
        :class:`_DescriptorOp`)."""
        return _DescriptorOp(self, descriptor)

    def flush_descriptor(self, descriptor: LongFieldDescriptor) -> None:
        """Commit the descriptor's current state to its page, uncharged.

        The batch engine calls this at the batch boundary, once per
        distinct descriptor the batch changed.  The disk gets a snapshot
        (:meth:`LongFieldDescriptor.snapshot`), packed only when the page
        is read (:meth:`~repro.buffer.pool.BufferPool.commit_image`).
        """
        tracer = self.env.tracer
        if tracer is not None:
            tracer.event(
                "descriptor.flush",
                page=descriptor.page_id,
                segments=len(descriptor.segments),
            )
        self.env.pool.commit_image(
            descriptor.page_id, descriptor.snapshot(DATA_AREA_BASE)
        )

    def _allocate_segment(self, alloc_pages: int) -> Segment:
        page_id = self.env.areas.data.allocate(alloc_pages)
        return Segment(page_id=page_id, alloc_pages=alloc_pages, used_bytes=0)

    def _pattern_for_last(
        self, descriptor: LongFieldDescriptor, next_segment: bool = False
    ) -> int:
        """Pattern size of the last segment (or of the one after it)."""
        index = len(descriptor.segments) - 1
        if next_segment:
            index += 1
        pattern = descriptor.pattern_pages_at(max(index, 0))
        return min(pattern, self.max_segment_pages)

    def _fill_segment(self, segment: Segment, data: Payload) -> int:
        """Append into a segment's free capacity; returns bytes consumed."""
        page_size = self.config.page_size
        capacity = segment.capacity(page_size)
        take = min(capacity - segment.used_bytes, len(data))
        if take <= 0:
            return 0
        first_dirty = segment.used_bytes // page_size
        within = segment.used_bytes - first_dirty * page_size
        chunk = data[:take]
        if within:
            page = self.env.segio.read_pages(segment.page_id + first_dirty, 1)
            chunk = payload_concat([page[:within], chunk])
        self.env.segio.write_pages(segment.page_id + first_dirty, chunk)
        segment.used_bytes += take
        return take

    def _trim_last(self, descriptor: LongFieldDescriptor) -> None:
        if not descriptor.segments:
            return
        last = descriptor.segments[-1]
        page_size = self.config.page_size
        used_pages = last.used_pages(page_size)
        if last.alloc_pages > used_pages:
            self.env.areas.data.free(
                last.page_id + used_pages, last.alloc_pages - used_pages
            )
            last.alloc_pages = used_pages

    def _untrim_last(self, descriptor: LongFieldDescriptor) -> None:
        """Copy a trimmed last segment back onto the growth pattern."""
        last = descriptor.segments[-1]
        pattern = self._pattern_for_last(descriptor)
        if last.alloc_pages == pattern:
            return
        content = self.env.segio.read_pages(
            last.page_id, last.used_pages(self.config.page_size)
        )[: last.used_bytes]
        new_segment = self._allocate_segment(pattern)
        new_segment.used_bytes = last.used_bytes
        self.env.segio.write_pages(new_segment.page_id, content)
        self.env.areas.data.free(last.page_id, last.alloc_pages)
        descriptor.segments[-1] = new_segment

    # ------------------------------------------------------------------
    # Tail rewriting (the expensive path)
    # ------------------------------------------------------------------
    def _rewrite_tail(
        self,
        descriptor: LongFieldDescriptor,
        first_index: int,
        splice_at: int,
        insert_data: Payload,
        delete_bytes: int,
    ) -> None:
        """Copy segments ``first_index..end`` into a new set of segments,
        splicing an insertion or skipping a deletion, through the staging
        buffer (Section 3.5): the old bytes before ``splice_at``, the
        inserted ones, then the old bytes ``delete_bytes`` further on, as
        one source piece per old segment range."""
        old_segments = descriptor.segments[first_index:]
        old_tail_bytes = sum(s.used_bytes for s in old_segments)
        new_tail_bytes = old_tail_bytes + len(insert_data) - delete_bytes
        new_segments = self._plan_tail(descriptor, first_index, new_tail_bytes)

        sources: list[tuple[int, int, int] | Payload] = []
        if splice_at:
            sources.append((old_segments[0].page_id, 0, splice_at))
        if insert_data:
            sources.append(insert_data)
        skip = splice_at + delete_bytes
        for segment in old_segments:
            if skip < segment.used_bytes:
                sources.append(
                    (segment.page_id, skip, segment.used_bytes - skip)
                )
                skip = 0
            else:
                skip -= segment.used_bytes
        self.env.segio.copy_staged(
            sources,
            self.config.staging_buffer_bytes,
            [(s.page_id, s.used_bytes) for s in new_segments],
        )

        for segment in old_segments:
            self.env.areas.data.free(segment.page_id, segment.alloc_pages)
        descriptor.segments[first_index:] = new_segments
        self._trim_last(descriptor)

    def _plan_tail(
        self, descriptor: LongFieldDescriptor, first_index: int, nbytes: int
    ) -> list[Segment]:
        """Allocate new tail segments continuing the growth pattern, once
        the descriptor is known to hold pointers to all of them."""
        sizes = self._tail_sizes(descriptor, first_index, nbytes)
        descriptor.check_capacity(first_index + len(sizes))
        segments: list[Segment] = []
        for pages, used_bytes in sizes:
            segment = self._allocate_segment(pages)
            segment.used_bytes = used_bytes
            segments.append(segment)
        return segments

    def _tail_sizes(
        self, descriptor: LongFieldDescriptor, index: int, nbytes: int
    ) -> list[tuple[int, int]]:
        """(pages, used bytes) of the segments holding ``nbytes`` bytes
        from segment ``index`` on, continuing the growth pattern."""
        page_size = self.config.page_size
        sizes: list[tuple[int, int]] = []
        while nbytes > 0:
            pattern = min(
                descriptor.pattern_pages_at(index), self.max_segment_pages
            )
            capacity = pattern * page_size
            if nbytes <= capacity:
                sizes.append((-(-nbytes // page_size), nbytes))
            else:
                sizes.append((pattern, capacity))
            nbytes -= capacity
            index += 1
        return sizes

    def _check_growth(
        self, descriptor: LongFieldDescriptor, nbytes: int
    ) -> None:
        """Refuse appending ``nbytes`` bytes when the descriptor could not
        point at every segment :meth:`append` would lay them out in (or
        :meth:`create`, on an empty descriptor), before anything changes.

        The last segment takes bytes up to its pattern size, a trimmed
        one once copied back onto the pattern; then new segments follow
        the pattern.  An empty field's first segment is as large as the
        data, up to the maximum, and anchors the pattern at that size.
        """
        segments = descriptor.segments
        if not segments:
            capacity = self.max_segment_pages * self.config.page_size
            descriptor.check_capacity(-(-nbytes // capacity))
            return
        last = segments[-1]
        page_size = self.config.page_size
        spill = nbytes + last.used_bytes - last.alloc_pages * page_size
        if spill <= 0:
            return
        spill -= page_size * max(
            self._pattern_for_last(descriptor) - last.alloc_pages, 0
        )
        if spill > 0:
            descriptor.check_capacity(len(segments) + len(
                self._tail_sizes(descriptor, len(segments), spill)
            ))


class _DescriptorOp:
    """Operation bracket: keep the descriptor image current on success.

    Nothing is flushed when the body raised: cleanup must not push a
    half-applied descriptor at the disk.  The op runs inside a batch —
    the one ``submit_ops`` opened, or else a batch of one that the
    bracket opens and closes itself — and the (uncharged) flush is
    handed to the engine, which commits each distinct descriptor once
    per batch.
    """

    __slots__ = ("manager", "descriptor", "engine", "lone")

    def __init__(
        self, manager: StarburstManager, descriptor: LongFieldDescriptor
    ) -> None:
        self.manager = manager
        self.descriptor = descriptor
        self.engine = manager.env.exec

    def __enter__(self) -> None:
        self.lone = self.engine.begin()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        engine = self.engine
        if exc_type is None:
            engine.defer_descriptor(self.manager, self.descriptor)
            if self.lone:
                engine.commit()
        elif self.lone:
            engine.abort()
