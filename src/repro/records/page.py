"""Slotted pages for small objects (records).

Classic slotted-page organization: a header and slot directory grow from
the front of the page, record bodies grow backward from the end.  Deleted
slots are tombstoned and their space reclaimed by compaction, so record
ids (page, slot) stay stable across other records' deletions.

The page maintains its own byte image at all times, so persistence is
"for free": the in-memory object *is* the on-disk representation.
"""

from __future__ import annotations

import struct

from repro.core.errors import (
    InvalidArgumentError,
    PageFullError,
    StorageCorruptionError,
)

_HEADER = struct.Struct("<2sHHH")  # magic, n_slots, data_start, pad
_SLOT = struct.Struct("<HH")  # offset, length (offset 0 => empty slot)
_MAGIC = b"SP"


def max_record_bytes(page_size: int) -> int:
    """The longest record an empty page of ``page_size`` bytes holds."""
    return page_size - _HEADER.size - _SLOT.size


class SlottedPage:
    """One page of variable-length records with a slot directory."""

    def __init__(self, page_size: int, image: bytes | None = None) -> None:
        if image is not None:
            if len(image) != page_size:
                raise StorageCorruptionError("page image size mismatch")
            magic, n_slots, data_start, _pad = _HEADER.unpack_from(image)
            if magic != _MAGIC:
                raise StorageCorruptionError("not a slotted page")
            self._image = bytearray(image)
            self.n_slots = n_slots
            self.data_start = data_start
        else:
            self._image = bytearray(page_size)
            self.n_slots = 0
            self.data_start = page_size
            self._write_header()
        self.page_size = page_size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def image(self) -> bytes:
        """The page's current byte image."""
        return bytes(self._image)

    def _slot(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n_slots:
            raise StorageCorruptionError(f"slot {index} out of range")
        return _SLOT.unpack_from(
            self._image, _HEADER.size + index * _SLOT.size
        )

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self._image, _HEADER.size + index * _SLOT.size, offset, length
        )

    def slot_in_use(self, index: int) -> bool:
        """Whether the slot currently holds a record."""
        offset, _length = self._slot(index)
        return offset != 0

    def get(self, index: int) -> bytes:
        """Record bytes stored in a slot."""
        offset, length = self._slot(index)
        if offset == 0:
            raise StorageCorruptionError(f"slot {index} is empty")
        return bytes(self._image[offset : offset + length])

    def live_slots(self) -> list[int]:
        """Indices of occupied slots."""
        return [i for i in range(self.n_slots) if self.slot_in_use(i)]

    def free_space(self) -> int:
        """Bytes available for a new record (including its slot entry).

        Conservative: counts only the contiguous gap between the slot
        directory and the record area (compaction may recover more).
        """
        directory_end = _HEADER.size + self.n_slots * _SLOT.size
        return max(0, self.data_start - directory_end)

    def usable_space_after_compaction(self) -> int:
        """Bytes available once dead record bodies are squeezed out."""
        live = sum(self._slot(i)[1] for i in self.live_slots())
        directory_end = _HEADER.size + self.n_slots * _SLOT.size
        return max(0, self.page_size - directory_end - live)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _free_slot(self) -> int | None:
        """The first tombstoned slot, which a new record reuses."""
        return next(
            (i for i in range(self.n_slots) if not self.slot_in_use(i)), None
        )

    def fits(self, record: bytes) -> bool:
        """Whether :meth:`insert` can store ``record``: its body plus a
        new slot entry (none when a tombstoned slot is reused), counting
        the space compaction recovers."""
        growth = 0 if self._free_slot() is not None else _SLOT.size
        return len(record) + growth <= self.usable_space_after_compaction()

    def insert(self, record: bytes) -> int:
        """Store a record; returns its slot index.

        Reuses a tombstoned slot when one exists; compacts if the
        contiguous gap is too small but total free space suffices.
        Raises :class:`PageFullError` when the record cannot fit.
        """
        if not record:
            raise InvalidArgumentError("empty records are not storable")
        if not self.fits(record):
            raise PageFullError(
                f"record of {len(record)} bytes does not fit"
            )
        reuse = self._free_slot()
        slot_growth = 0 if reuse is not None else _SLOT.size
        if len(record) + slot_growth > self.free_space():
            self.compact()
        index = reuse if reuse is not None else self.n_slots
        if reuse is None:
            self.n_slots += 1
        self.data_start -= len(record)
        self._image[self.data_start : self.data_start + len(record)] = record
        self._set_slot(index, self.data_start, len(record))
        self._write_header()
        return index

    def delete(self, index: int) -> None:
        """Tombstone a slot (its space is reclaimed by compaction)."""
        if not self.slot_in_use(index):
            raise StorageCorruptionError(f"slot {index} already empty")
        self._set_slot(index, 0, 0)
        self._write_header()

    def update(self, index: int, record: bytes) -> None:
        """Replace a slot's record, moving it within the page if needed."""
        offset, length = self._slot(index)
        if offset == 0:
            raise StorageCorruptionError(f"slot {index} is empty")
        if len(record) <= length:
            self._image[offset : offset + len(record)] = record
            self._set_slot(index, offset, len(record))
            self._write_header()
            return
        self._set_slot(index, 0, 0)
        if len(record) > self.usable_space_after_compaction():
            self._set_slot(index, offset, length)  # restore
            raise PageFullError("updated record does not fit")
        if len(record) > self.free_space():
            self.compact()
        self.data_start -= len(record)
        self._image[self.data_start : self.data_start + len(record)] = record
        self._set_slot(index, self.data_start, len(record))
        self._write_header()

    def compact(self) -> None:
        """Squeeze out dead record bodies, preserving slot indices."""
        records = [
            (index, self.get(index)) for index in self.live_slots()
        ]
        self.data_start = self.page_size
        for index, body in records:
            self.data_start -= len(body)
            self._image[self.data_start : self.data_start + len(body)] = body
            self._set_slot(index, self.data_start, len(body))
        # Zero the reclaimed gap (tidy images, deterministic tests).
        directory_end = _HEADER.size + self.n_slots * _SLOT.size
        self._image[directory_end : self.data_start] = bytes(
            self.data_start - directory_end
        )
        self._write_header()

    def _write_header(self) -> None:
        _HEADER.pack_into(
            self._image, 0, _MAGIC, self.n_slots, self.data_start, 0
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify slot/record geometry; for tests."""
        directory_end = _HEADER.size + self.n_slots * _SLOT.size
        assert directory_end <= self.data_start <= self.page_size
        spans = []
        for index in self.live_slots():
            offset, length = self._slot(index)
            assert self.data_start <= offset
            assert offset + length <= self.page_size
            spans.append((offset, offset + length))
        spans.sort()
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start, "overlapping records"
