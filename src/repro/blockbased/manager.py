"""A block-based large-object manager: the baseline class of Section 1.

The paper divides prior solutions into *block-based* and *segment-based*:

    "Algorithms of the first kind store the large object in a number of
     single blocks [Astr76, Hask82, Chou85].  In these schemes, blocks
     that store consecutive byte ranges of the object are scattered over
     a disk volume.  As a result, sequential reads will be slow because
     virtually every disk page fetch will most likely result in a disk
     seek."

This manager implements that class in the style of the Wisconsin Storage
System's long data items [Chou85]: the object is a sequence of single
data pages, each holding an independent byte count, indexed by a paged
directory of (pointer, count) slots.  Pages are allocated one block at a
time and every page access is its own I/O call — one seek per page, the
defining cost of the class.  Inserts split the affected page; there is no
neighbour rebalancing, so utilization degrades under updates.

It is not one of the paper's three measured systems; it exists so the
intro's block-based-vs-segment-based claim can be measured rather than
assumed (``tests/test_paper_numbers.py`` pins its full scan).
"""

from __future__ import annotations

import functools
import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, NamedTuple

from repro.buddy.area import DATA_AREA_BASE
from repro.core.env import StorageEnvironment
from repro.core.errors import StorageCorruptionError
from repro.core.manager import ImageExtent, LargeObjectManager
from repro.core.payload import (
    Payload,
    payload_bytes,
    payload_concat,
    payload_view,
)

_DIR_HEADER = struct.Struct("<4sHHI")  # magic, n_slots, pad, next+1
_SLOT = struct.Struct("<IH2x")  # page pointer (data-area relative), used
_DIR_MAGIC = b"BBLO"
#: Pages per block of an object's offset sums: an update re-sums the
#: blocks it touches and shifts the totals of the blocks after them.
_BLOCK = 64


class DataPage(NamedTuple):
    """One single-block piece of the object.  Immutable, so a slice of
    a page list is a snapshot of those slots."""

    page_id: int
    used_bytes: int


_USED = itemgetter(1)


def _image(page_size: int, slots: list[DataPage], next_link: int) -> bytes:
    """Pack one directory page from the slots :meth:`_sync_directory`
    took."""
    return b"".join([
        _DIR_HEADER.pack(_DIR_MAGIC, len(slots), 0, next_link),
        *[_SLOT.pack(page_id - DATA_AREA_BASE, used)
          for page_id, used in slots],
    ]).ljust(page_size, b"\x00")


class _PageList:
    """An object's data pages, with byte offsets summed per block of
    pages as a tree node keeps ``cums`` per node: ``stops[b]`` is the
    index past block ``b``'s last page, ``ends[b]`` the object's bytes
    through it."""

    __slots__ = ("pages", "stops", "ends")

    def __init__(self) -> None:
        self.pages: list[DataPage] = []
        self.stops: list[int] = []
        self.ends: list[int] = []

    def size(self) -> int:
        return self.ends[-1] if self.ends else 0

    def locate(self, offset: int) -> tuple[int, int]:
        """(index of the page holding byte ``offset`` < size, offset
        within it); empty pages are skipped."""
        block = bisect_right(self.ends, offset)
        lo = self.stops[block - 1] if block else 0
        offset -= self.ends[block - 1] if block else 0
        cums = list(accumulate(map(_USED, self.pages[lo:self.stops[block]])))
        index = bisect_right(cums, offset)
        return lo + index, offset - (cums[index - 1] if index else 0)

    def splice(self, lo: int, hi: int, new: list[DataPage]) -> None:
        """``pages[lo:hi] = new``, re-summing only the blocks it touches."""
        pages, stops, ends = self.pages, self.stops, self.ends
        last_block = max(len(stops) - 1, 0)
        first = min(bisect_right(stops, lo), last_block)
        last = min(max(first, bisect_left(stops, hi)), last_block)
        start = stops[first - 1] if first else 0
        base = ends[first - 1] if first else 0
        old_stop, old_end = (stops[last], ends[last]) if stops else (0, 0)
        pages[lo:hi] = new
        stop = old_stop + len(new) - (hi - lo)
        cuts = range(start, stop, _BLOCK)
        new_stops = [min(cut + _BLOCK, stop) for cut in cuts]
        sums = [sum(map(_USED, pages[cut:end]))
                for cut, end in zip(cuts, new_stops)]
        new_ends = list(accumulate(sums, initial=base))
        moved, grown = stop - old_stop, new_ends[-1] - old_end
        stops[first:] = new_stops + [s + moved for s in stops[last + 1 :]]
        ends[first:] = new_ends[1:] + [e + grown for e in ends[last + 1 :]]


class BlockBasedManager(LargeObjectManager):
    """Single-block storage with a paged slot directory."""

    scheme = "blockbased"

    def __init__(self, env: StorageEnvironment) -> None:
        super().__init__(env)
        #: oid -> its data pages; the serialized form lives in the
        #: object's directory pages.
        self._objects: dict[int, _PageList] = {}
        #: oid -> directory page ids (first one doubles as the oid).
        self._directories: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # Directory geometry
    # ------------------------------------------------------------------
    def _slots_per_directory_page(self) -> int:
        return (self.config.page_size - _DIR_HEADER.size) // _SLOT.size

    def _directory_pages_needed(self, n_pages: int) -> int:
        return max(1, -(-n_pages // self._slots_per_directory_page()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, data: Payload = b"") -> int:
        """Create an object as a chain of single data pages plus directory."""
        with self._op_span("create"):
            oid = self.env.areas.meta.allocate(1)
            self._objects[oid] = _PageList()
            self._directories[oid] = [oid]
            if data:
                self.append(oid, data)
            else:
                self._sync_directory(oid)
            return oid

    def destroy(self, oid: int) -> None:
        """Free every data page and directory page of the object."""
        pages = self._pages(oid).pages
        with self._op_span("destroy", oid):
            for page in pages:
                self.env.areas.data.free(page.page_id, 1)
            for dir_page in self._directories[oid]:
                self.env.areas.meta.free(dir_page, 1)
            del self._objects[oid]
            del self._directories[oid]

    def size(self, oid: int) -> int:
        """Current object size in bytes, kept in the page list's sums."""
        return self._pages(oid).size()

    def oids(self) -> list[int]:
        """Ids of every live object, sorted."""
        return sorted(self._objects)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read a byte range one page per I/O call — the class's defining one-
        seek-per-page cost.
        """
        obj = self._pages(oid)
        pages = obj.pages
        self._check_range(oid, offset, nbytes, obj.size())
        if nbytes == 0:
            return b""
        with self._op_span("read", oid):
            index, within = self._charge_directory_walk(oid, offset, nbytes)
            chunks: list[Payload] = []
            remaining = nbytes
            while remaining > 0:
                page = pages[index]
                take = min(page.used_bytes - within, remaining)
                # One I/O call per page: the defining block-based cost.
                content = self.env.segio.read_pages(page.page_id, 1)
                chunks.append(content[within : within + take])
                remaining -= take
                index, within = index + 1, 0
            return payload_concat(chunks)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes, filling the last page before allocating new single-
        block pages.
        """
        obj = self._pages(oid)
        if not data:
            return
        with self._op_span("append", oid):
            pages = obj.pages
            page_size = self.config.page_size
            view = payload_view(data)
            lo = len(pages)
            new: list[DataPage] = []
            if pages and pages[-1].used_bytes < page_size:
                last = pages[-1]
                take = min(page_size - last.used_bytes, len(view))
                old = self.env.segio.read_pages(last.page_id, 1)
                self.env.segio.write_pages(
                    last.page_id,
                    payload_concat(
                        [old[: last.used_bytes], payload_bytes(view[:take])]
                    ),
                )
                lo -= 1
                new.append(last._replace(used_bytes=last.used_bytes + take))
                view = view[take:]
            while view:
                take = min(page_size, len(view))
                page_id = self.env.areas.data.allocate(1)
                self.env.segio.write_pages(page_id, payload_bytes(view[:take]))
                new.append(DataPage(page_id=page_id, used_bytes=take))
                view = view[take:]
            obj.splice(lo, len(pages), new)
            self._sync_directory(oid)

    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes by splitting the affected page (no neighbour
        rebalancing, so utilization degrades).
        """
        obj = self._pages(oid)
        self._check_offset(oid, offset, obj.size())
        if not data:
            return
        if offset == obj.size():
            self.append(oid, data)
            return
        with self._op_span("insert", oid):
            index, within = self._charge_directory_walk(oid, offset, 1)
            page = obj.pages[index]
            content = self.env.segio.read_pages(page.page_id, 1)
            spliced = payload_concat(
                [content[:within], data, content[within : page.used_bytes]]
            )
            fits = len(spliced) <= self.config.page_size
            if fits and not self.env.shadow.overwrite_needs_new_segment():
                # Without shadowing a fitting splice is written in place.
                self.env.segio.write_pages(page.page_id, spliced)
                replacement = [page._replace(used_bytes=len(spliced))]
            else:
                replacement = self._write_chain(spliced)
                self.env.areas.data.free(page.page_id, 1)
            obj.splice(index, index + 1, replacement)
            self._sync_directory(oid)

    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete a byte range, dropping pages that become empty."""
        obj = self._pages(oid)
        self._check_range(oid, offset, nbytes, obj.size())
        if nbytes == 0:
            return
        with self._op_span("delete", oid):
            first, within = self._charge_directory_walk(oid, offset, nbytes)
            stop = offset + nbytes
            position = offset - within
            index = first
            survivors: list[DataPage] = []
            while position < stop:
                page = obj.pages[index]
                end = position + page.used_bytes
                cut_lo = max(offset, position)
                cut_hi = min(stop, end)
                if cut_lo >= cut_hi:
                    survivors.append(page)
                elif cut_lo == position and cut_hi == end:
                    # Whole page deleted.
                    self.env.areas.data.free(page.page_id, 1)
                else:
                    content = self.env.segio.read_pages(page.page_id, 1)
                    kept = payload_concat([
                        content[: cut_lo - position],
                        content[cut_hi - position : page.used_bytes],
                    ])
                    survivors.append(self._rewrite_page(page, kept))
                position = end
                index += 1
            obj.splice(first, index, survivors)
            self._sync_directory(oid)

    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite bytes page by page, shadowing each affected page."""
        obj = self._pages(oid)
        pages = obj.pages
        self._check_range(oid, offset, len(data), obj.size())
        if not data:
            return
        with self._op_span("replace", oid):
            index, within = self._charge_directory_walk(oid, offset, len(data))
            cursor = 0
            while cursor < len(data):
                page = pages[index]
                take = min(page.used_bytes - within, len(data) - cursor)
                content = self.env.segio.read_pages(page.page_id, 1)
                patched = payload_concat([
                    content[:within],
                    data[cursor : cursor + take],
                    content[within + take : page.used_bytes],
                ])
                # Same byte count, so the offset sums stand.
                pages[index] = self._rewrite_page(page, patched)
                cursor += take
                index, within = index + 1, 0
            self._sync_directory(oid)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def allocated_pages(self, oid: int) -> int:
        """Data pages plus directory pages allocated to the object."""
        return len(self._pages(oid).pages) + len(self._directories[oid])

    def pages_of(self, oid: int) -> list[DataPage]:
        """The object's data pages (for tests and inspection)."""
        return list(self._pages(oid).pages)

    def directory_of(self, oid: int) -> list[int]:
        """The object's directory page ids, the oid first (for tests and
        inspection)."""
        self._pages(oid)  # an unknown oid raises here
        return list(self._directories[oid])

    def check_invariants(self, oid: int) -> None:
        """Verify page counts, directory capacity and offset sums; for
        tests."""
        obj = self._pages(oid)
        pages = obj.pages
        page_size = self.config.page_size
        for page in pages:
            assert 0 < page.used_bytes <= page_size, "page fill out of range"
        assert len(self._directories[oid]) == self._directory_pages_needed(
            len(pages)
        ), "directory page count drift"
        starts = [0, *obj.stops[:-1]]
        assert obj.stops[-1:] == ([len(pages)] if pages else []) and all(
            lo < hi for lo, hi in zip(starts, obj.stops)
        ), "offset block drift"
        assert obj.ends == list(accumulate(
            sum(map(_USED, pages[lo:hi])) for lo, hi in zip(starts, obj.stops)
        )), "object size drift"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pages(self, oid: int) -> _PageList:
        try:
            return self._objects[oid]
        except KeyError:
            raise self._missing(oid) from None

    def _write_chain(self, data: Payload) -> list[DataPage]:
        """Write bytes into freshly allocated single pages (no batching)."""
        page_size = self.config.page_size
        result = []
        for start in range(0, len(data), page_size):
            chunk = data[start : start + page_size]
            page_id = self.env.areas.data.allocate(1)
            self.env.segio.write_pages(page_id, chunk)
            result.append(DataPage(page_id=page_id, used_bytes=len(chunk)))
        return result

    def _rewrite_page(self, page: DataPage, content: Payload) -> DataPage:
        """Rewrite one page under the shadowing policy."""
        if self.env.shadow.overwrite_needs_new_segment():
            page_id = self.env.areas.data.allocate(1)
            self.env.segio.write_pages(page_id, content)
            self.env.areas.data.free(page.page_id, 1)
            return DataPage(page_id=page_id, used_bytes=len(content))
        self.env.segio.write_pages(page.page_id, content)
        return DataPage(page_id=page.page_id, used_bytes=len(content))

    # ------------------------------------------------------------------
    # Directory maintenance
    # ------------------------------------------------------------------
    def _charge_directory_walk(
        self, oid: int, offset: int, nbytes: int
    ) -> tuple[int, int]:
        """Fix the directory pages covering the touched slot range, and
        return where byte ``offset`` is (:meth:`_PageList.locate`).

        The first directory page is the object descriptor and, like the
        other schemes' roots, memory-resident; overflow directory pages
        go through the buffer pool.
        """
        obj = self._objects[oid]
        first = obj.locate(offset)
        last, _ = obj.locate(min(offset + max(nbytes, 1), obj.size()) - 1)
        per_page = self._slots_per_directory_page()
        directory = self._directories[oid]
        covered = directory[max(first[0] // per_page, 1):last // per_page + 1]
        for dir_page in covered:
            self.env.pool.access(dir_page)
        return first

    def _sync_directory(self, oid: int) -> None:
        """Grow/shrink directory pages and commit their images, each a
        builder over its slice of the page list, packed when read."""
        pages = self._objects[oid].pages
        directory = self._directories[oid]
        needed = self._directory_pages_needed(len(pages))
        while len(directory) < needed:
            directory.append(self.env.areas.meta.allocate(1))
        while len(directory) > needed:
            self.env.areas.meta.free(directory.pop(), 1)
        per_page = self._slots_per_directory_page()
        builds = [
            functools.partial(
                _image, self.config.page_size,
                pages[index * per_page : (index + 1) * per_page],
                directory[index + 1] + 1 if index + 1 < len(directory) else 0,
            )
            for index in range(len(directory))
        ]
        # Overflow directory pages are flushed first (one write each); the
        # first page rides with the object descriptor, uncharged, and its
        # update is the operation's commit point — it must land only after
        # every page it links to is safely on disk.
        for dir_page, build in zip(directory[1:], builds[1:]):
            self.env.pool.write_run(dir_page, 1, [build], record=True)
        self.env.pool.commit_image(directory[0], builds[0])

    @classmethod
    def load_directory(
        cls, env: StorageEnvironment, image: bytes
    ) -> tuple[list[DataPage], int | None]:
        """Decode one directory page image.

        Returns the page's slots and the next directory page id in the
        chain (or None).
        """
        magic, n_slots, _pad, next_link = _DIR_HEADER.unpack_from(image)
        if magic != _DIR_MAGIC:
            raise StorageCorruptionError("not a block-based directory page")
        pages = []
        for index in range(n_slots):
            pointer, used = _SLOT.unpack_from(
                image, _DIR_HEADER.size + index * _SLOT.size
            )
            pages.append(
                DataPage(page_id=DATA_AREA_BASE + pointer, used_bytes=used)
            )
        return pages, (next_link - 1) if next_link else None

    def image_extents(self, oid: int) -> Iterator[ImageExtent]:
        """The whole directory chain, then its data pages."""
        page_size = self.config.page_size
        directory: list[int] = []
        pages: list[DataPage] = []
        current: int | None = oid
        while current is not None:
            directory.append(current)
            slots, current = self.load_directory(
                self.env, self.env.disk.peek_pages(current, 1)
            )
            pages.extend(slots)
        for dir_page in directory:
            yield ImageExtent(dir_page, page_size, 1, True)
        for page in pages:
            yield ImageExtent(page.page_id, page.used_bytes, 1, False)
