"""The record store: small objects owning long fields (Section 2).

A heap file of slotted pages holds the small objects; each LONG field of
a record stores a long field descriptor — the id of a large object
managed by any of the storage mechanisms in this package.  The byte-range
interface of the underlying manager is re-exposed per field, so clients
can, e.g., stream a person's ``voice`` attribute without touching the
``picture`` attribute, exactly the usage the paper motivates.

Record pages live in the meta database area and are accessed through the
buffer pool, so small-object I/O is charged under the same cost model as
everything else.
"""

from __future__ import annotations

import dataclasses

from repro.core.env import StorageEnvironment
from repro.core.errors import ObjectNotFoundError, ReproError
from repro.core.manager import LargeObjectManager
from repro.records.page import PageFullError, SlottedPage, max_record_bytes
from repro.records.schema import FieldKind, Schema, SchemaError


@dataclasses.dataclass(frozen=True)
class RecordId:
    """Stable identifier of a record: (page id, slot index)."""

    page_id: int
    slot: int


class RecordStore:
    """Heap file of schema'd records with long-field support."""

    def __init__(
        self,
        schema: Schema,
        manager: LargeObjectManager,
    ) -> None:
        self.schema = schema
        self.manager = manager
        self.env: StorageEnvironment = manager.env
        self._pages: list[int] = []
        self._cache: dict[int, SlottedPage] = {}

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, **values: object) -> RecordId:
        """Insert a record.

        LONG field values are given as ``bytes``; the store creates the
        large object and stores its descriptor in the record.  A record
        no empty page could hold is refused before any object is created
        or any page allocated: a LONG field serializes as a fixed-size
        oid, so the record's size is known up front.
        """
        self.schema.check_names(values)  # before any object is created
        contents = self._contents(values)
        body = self.schema.serialize({**values, **dict.fromkeys(contents, 0)})
        limit = max_record_bytes(self.env.config.page_size)
        if len(body) > limit:
            raise PageFullError(
                f"record of {len(body)} bytes does not fit a page "
                f"(at most {limit})"
            )
        created = [self.manager.create(data) for data in contents.values()]
        body = self.schema.serialize({**values, **dict(zip(contents, created))})
        page_id = None
        try:
            page_id, page, slot = self._place(body)
            self.env.pool.write_run(page_id, 1, page.image, record=True)
        except Exception as exc:
            if self.env.disk.halted:
                raise  # a crash: recovery, not an undo, restores the image
            error = exc
        else:
            if page_id not in self._pages:
                self._pages.append(page_id)
            self._cache[page_id] = page
            return RecordId(page_id, slot)
        # The record never existed: its LONG objects and a fresh page are
        # given back once the handler has ended, as an undo of their own
        # and not as cleanup of the failed write (the cleanup contract).
        for oid in created:
            self.manager.destroy(oid)
        if page_id is not None and page_id not in self._pages:
            self.env.areas.meta.free(page_id, 1)
        raise error

    def get(self, rid: RecordId) -> dict[str, object]:
        """Fetch a record; LONG fields come back as object ids."""
        return self._record(self._load_page(rid.page_id), rid)

    def update(self, rid: RecordId, **values: object) -> None:
        """Update short (INT/TEXT) fields of a record in place."""
        for name in values:
            if self.schema.field(name).kind is FieldKind.LONG:
                raise SchemaError(
                    f"{name!r} is a long field; use the *_long methods"
                )
        page = self._load_page(rid.page_id)
        record = self._record(page, rid)
        record.update(values)
        body = self.schema.serialize(record)
        try:
            page.update(rid.slot, body)
        except PageFullError:
            raise ReproError(
                "record update overflows its page; delete and reinsert"
            ) from None
        self._flush_page(rid.page_id)

    def delete(self, rid: RecordId) -> None:
        """Delete a record and destroy its long fields."""
        record = self.get(rid)
        for field in self.schema.long_fields():
            self.manager.destroy(record[field.name])
        page = self._load_page(rid.page_id)
        page.delete(rid.slot)
        if page.live_slots():
            self._flush_page(rid.page_id)
        else:
            # Last record gone: return the page to the meta area instead
            # of leaking it (the allocator invalidates resident copies).
            self._pages.remove(rid.page_id)
            del self._cache[rid.page_id]
            self.env.areas.meta.free(rid.page_id, 1)

    def scan(self):
        """Yield (rid, record) for every live record."""
        for page_id in self._pages:
            page = self._load_page(page_id)
            for slot in page.live_slots():
                yield (
                    RecordId(page_id, slot),
                    self.schema.deserialize(page.get(slot)),
                )

    # ------------------------------------------------------------------
    # Long-field byte-range operations (the paper's interface)
    # ------------------------------------------------------------------
    def long_size(self, rid: RecordId, field: str) -> int:
        """Current size of a record's long field."""
        return self.manager.size(self._long_oid(rid, field))

    def read_long(
        self, rid: RecordId, field: str, offset: int, nbytes: int
    ) -> bytes:
        """Read a byte range of a long field."""
        return self.manager.read(self._long_oid(rid, field), offset, nbytes)

    def append_long(self, rid: RecordId, field: str, data: bytes) -> None:
        """Append bytes at the end of a long field."""
        self.manager.append(self._long_oid(rid, field), data)

    def insert_long(
        self, rid: RecordId, field: str, offset: int, data: bytes
    ) -> None:
        """Insert bytes at an arbitrary position of a long field."""
        self.manager.insert(self._long_oid(rid, field), offset, data)

    def delete_long(
        self, rid: RecordId, field: str, offset: int, nbytes: int
    ) -> None:
        """Delete bytes from a long field."""
        self.manager.delete(self._long_oid(rid, field), offset, nbytes)

    def replace_long(
        self, rid: RecordId, field: str, offset: int, data: bytes
    ) -> None:
        """Overwrite a byte range of a long field."""
        self.manager.replace(self._long_oid(rid, field), offset, data)

    def long_utilization(self, rid: RecordId, field: str) -> float:
        """Storage utilization of one long field."""
        return self.manager.utilization(self._long_oid(rid, field))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _long_oid(self, rid: RecordId, field: str) -> int:
        if self.schema.field(field).kind is not FieldKind.LONG:
            raise SchemaError(f"{field!r} is not a long field")
        return int(self.get(rid)[field])  # type: ignore[arg-type]

    def _contents(self, values: dict[str, object]) -> dict[str, bytes]:
        """The content of every LONG field given as bytes (absent: empty);
        an oid given as an int is stored as it is."""
        contents: dict[str, bytes] = {}
        for field in self.schema.long_fields():
            value = values.get(field.name, b"")
            if isinstance(value, (bytes, bytearray, memoryview)):
                contents[field.name] = bytes(value)
            elif not isinstance(value, int):
                raise SchemaError(
                    f"{field.name!r} must be bytes (content) or an oid"
                )
        return contents

    def _place(self, body: bytes) -> tuple[int, SlottedPage, int]:
        """The first page with room for ``body`` (a fresh one when none
        has room), a copy of it holding ``body`` and the slot it took:
        the store's own page changes only once the copy is written."""
        page_size = self.env.config.page_size
        for page_id in self._pages:
            page = self._load_page(page_id)
            if page.fits(body):
                copy = SlottedPage(page_size, page.image)
                return page_id, copy, copy.insert(body)
        page = SlottedPage(page_size)
        slot = page.insert(body)
        return self.env.areas.meta.allocate(1), page, slot

    def _record(self, page: SlottedPage, rid: RecordId) -> dict[str, object]:
        if rid.slot >= page.n_slots or not page.slot_in_use(rid.slot):
            raise ObjectNotFoundError(f"no record at {rid}")
        return self.schema.deserialize(page.get(rid.slot))

    def _load_page(self, page_id: int) -> SlottedPage:
        if page_id not in self._pages:
            # The page was freed when its last record was deleted.
            raise ObjectNotFoundError(f"no record page {page_id}")
        # Charged like any small-object page touch, cached or not.
        pool = self.env.pool
        pool.access(page_id)
        if page_id not in self._cache:
            self._cache[page_id] = SlottedPage(
                self.env.config.page_size,
                pool.page(page_id).ljust(self.env.config.page_size, b"\x00"),
            )
        return self._cache[page_id]

    def _flush_page(self, page_id: int) -> None:
        image = self._cache[page_id].image
        self.env.pool.write_run(page_id, 1, image, record=True)
