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
assumed (see ``benchmarks/test_baseline_blockbased.py``).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Iterator

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


@dataclasses.dataclass
class DataPage:
    """One single-block piece of the object."""

    page_id: int
    used_bytes: int


@dataclasses.dataclass(frozen=True)
class BlockBasedOptions:
    """Client-visible knobs of the block-based baseline."""

    #: Free a data page when a delete leaves it completely empty.
    free_empty_pages: bool = True


class BlockBasedManager(LargeObjectManager):
    """Single-block storage with a paged slot directory."""

    scheme = "blockbased"

    def __init__(
        self,
        env: StorageEnvironment,
        options: BlockBasedOptions | None = None,
    ) -> None:
        super().__init__(env)
        self.options = options or BlockBasedOptions()
        #: oid -> list of data pages; the serialized form lives in the
        #: object's directory pages.
        self._objects: dict[int, list[DataPage]] = {}
        #: oid -> object size in bytes, kept in step with its page list.
        self._sizes: dict[int, int] = {}
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
            self._objects[oid] = []
            self._sizes[oid] = 0
            self._directories[oid] = [oid]
            if data:
                self.append(oid, data)
            else:
                self._sync_directory(oid)
            return oid

    def destroy(self, oid: int) -> None:
        """Free every data page and directory page of the object."""
        pages = self._pages(oid)
        with self._op_span("destroy", oid):
            for page in pages:
                self.env.areas.data.free(page.page_id, 1)
            for dir_page in self._directories[oid]:
                self.env.areas.meta.free(dir_page, 1)
            del self._objects[oid]
            del self._sizes[oid]
            del self._directories[oid]

    def size(self, oid: int) -> int:
        """Current object size in bytes, kept beside the page list."""
        self._pages(oid)  # an unknown oid raises here
        return self._sizes[oid]

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
        pages = self._pages(oid)
        self._check_range(oid, offset, nbytes)
        if nbytes == 0:
            return b""
        with self._op_span("read", oid):
            self._charge_directory_walk(oid, offset, nbytes)
            chunks: list[Payload] = []
            position = 0
            remaining = nbytes
            for page in pages:
                end = position + page.used_bytes
                if offset < end and remaining > 0:
                    within = max(offset - position, 0)
                    take = min(page.used_bytes - within, remaining)
                    # One I/O call per page: the defining block-based cost.
                    content = self.env.segio.read_pages(page.page_id, 1)
                    chunks.append(content[within : within + take])
                    remaining -= take
                position = end
                if remaining <= 0:
                    break
            return payload_concat(chunks)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes, filling the last page before allocating new single-
        block pages.
        """
        pages = self._pages(oid)
        if not data:
            return
        with self._op_span("append", oid):
            page_size = self.config.page_size
            view = payload_view(data)
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
                last.used_bytes += take
                self._sizes[oid] += take
                view = view[take:]
            while view:
                take = min(page_size, len(view))
                page_id = self.env.areas.data.allocate(1)
                self.env.segio.write_pages(page_id, payload_bytes(view[:take]))
                pages.append(DataPage(page_id=page_id, used_bytes=take))
                self._sizes[oid] += take
                view = view[take:]
            self._sync_directory(oid)

    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes by splitting the affected page (no neighbour
        rebalancing, so utilization degrades).
        """
        pages = self._pages(oid)
        self._check_offset(oid, offset)
        if not data:
            return
        if offset == self.size(oid):
            self.append(oid, data)
            return
        with self._op_span("insert", oid):
            self._charge_directory_walk(oid, offset, 1)
            index, within = self._locate(pages, offset)
            page = pages[index]
            content = self.env.segio.read_pages(page.page_id, 1)
            spliced = payload_concat(
                [content[:within], data, content[within : page.used_bytes]]
            )
            fits = len(spliced) <= self.config.page_size
            if fits and not self.env.shadow.overwrite_needs_new_segment():
                # Without shadowing a fitting splice is written in place.
                self.env.segio.write_pages(page.page_id, spliced)
                page.used_bytes = len(spliced)
            else:
                replacement = self._write_chain(spliced)
                self.env.areas.data.free(page.page_id, 1)
                pages[index : index + 1] = replacement
            self._sizes[oid] += len(data)
            self._sync_directory(oid)

    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete a byte range, dropping pages that become empty."""
        pages = self._pages(oid)
        self._check_range(oid, offset, nbytes)
        if nbytes == 0:
            return
        with self._op_span("delete", oid):
            self._charge_directory_walk(oid, offset, nbytes)
            position = 0
            survivors: list[DataPage] = []
            for page in pages:
                end = position + page.used_bytes
                cut_lo = max(offset, position)
                cut_hi = min(offset + nbytes, end)
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
                    if kept or not self.options.free_empty_pages:
                        new_page = self._rewrite_page(page, kept)
                        survivors.append(new_page)
                    else:
                        self.env.areas.data.free(page.page_id, 1)
                position = end
            self._objects[oid] = survivors
            self._sizes[oid] -= nbytes
            self._sync_directory(oid)

    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite bytes page by page, shadowing each affected page."""
        pages = self._pages(oid)
        self._check_range(oid, offset, len(data))
        if not data:
            return
        with self._op_span("replace", oid):
            self._charge_directory_walk(oid, offset, len(data))
            position = 0
            cursor = 0
            for index, page in enumerate(pages):
                end = position + page.used_bytes
                if offset < end and cursor < len(data):
                    within = max(offset - position, 0)
                    take = min(page.used_bytes - within, len(data) - cursor)
                    content = self.env.segio.read_pages(page.page_id, 1)
                    patched = payload_concat([
                        content[:within],
                        data[cursor : cursor + take],
                        content[within + take : page.used_bytes],
                    ])
                    pages[index] = self._rewrite_page(page, patched)
                    cursor += take
                position = end
                if cursor >= len(data):
                    break
            self._sync_directory(oid)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def allocated_pages(self, oid: int) -> int:
        """Data pages plus directory pages allocated to the object."""
        return len(self._pages(oid)) + len(self._directories[oid])

    def pages_of(self, oid: int) -> list[DataPage]:
        """The object's data pages (for tests and inspection)."""
        return list(self._pages(oid))

    def directory_of(self, oid: int) -> list[int]:
        """The object's directory page ids, the oid first (for tests and
        inspection)."""
        self._pages(oid)  # an unknown oid raises here
        return list(self._directories[oid])

    def check_invariants(self, oid: int) -> None:
        """Verify page counts and directory capacity; for tests."""
        pages = self._pages(oid)
        page_size = self.config.page_size
        for page in pages:
            assert 0 < page.used_bytes <= page_size or (
                not self.options.free_empty_pages
            ), "page fill out of range"
        assert len(self._directories[oid]) == self._directory_pages_needed(
            len(pages)
        ), "directory page count drift"
        assert self._sizes[oid] == sum(
            page.used_bytes for page in pages
        ), "object size drift"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pages(self, oid: int) -> list[DataPage]:
        try:
            return self._objects[oid]
        except KeyError:
            raise self._missing(oid) from None

    @staticmethod
    def _locate(pages: list[DataPage], offset: int) -> tuple[int, int]:
        position = 0
        for index, page in enumerate(pages):
            if offset < position + page.used_bytes:
                return index, offset - position
            position += page.used_bytes
        return len(pages) - 1, pages[-1].used_bytes if pages else 0

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
    def _charge_directory_walk(self, oid: int, offset: int, nbytes: int) -> None:
        """Fix the directory pages covering the touched slot range.

        The first directory page is the object descriptor and, like the
        other schemes' roots, memory-resident; overflow directory pages
        go through the buffer pool.
        """
        pages = self._pages(oid)
        if not pages:
            return
        first, _ = self._locate(pages, offset)
        last, _ = self._locate(pages, min(offset + max(nbytes, 1),
                                          self.size(oid)) - 1)
        per_page = self._slots_per_directory_page()
        directory = self._directories[oid]
        for dir_index in range(first // per_page, last // per_page + 1):
            if dir_index == 0 or dir_index >= len(directory):
                continue
            self.env.pool.access(directory[dir_index])

    def _sync_directory(self, oid: int) -> None:
        """Grow/shrink directory pages and refresh their disk images."""
        pages = self._pages(oid)
        directory = self._directories[oid]
        needed = self._directory_pages_needed(len(pages))
        while len(directory) < needed:
            directory.append(self.env.areas.meta.allocate(1))
        while len(directory) > needed:
            self.env.areas.meta.free(directory.pop(), 1)
        per_page = self._slots_per_directory_page()
        page_size = self.config.page_size
        images = []
        for dir_index, dir_page in enumerate(directory):
            slots = pages[dir_index * per_page : (dir_index + 1) * per_page]
            next_link = (
                directory[dir_index + 1] + 1
                if dir_index + 1 < len(directory)
                else 0
            )
            image = _DIR_HEADER.pack(
                _DIR_MAGIC, len(slots), 0, next_link
            ) + b"".join(
                _SLOT.pack(slot.page_id - DATA_AREA_BASE, slot.used_bytes)
                for slot in slots
            )
            if len(image) > page_size:
                raise StorageCorruptionError("directory slot overflow")
            images.append((dir_page, image))
        # Overflow directory pages are flushed first (one write each); the
        # first page rides with the object descriptor, uncharged, and its
        # update is the operation's commit point — it must land only after
        # every page it links to is safely on disk.
        for dir_page, image in images[1:]:
            self.env.pool.write_run(
                dir_page, 1, image.ljust(page_size, b"\x00"), record=True
            )
        first_page, first_image = images[0]
        self.env.pool.disk.poke_pages(first_page, first_image)

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
