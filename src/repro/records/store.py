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
from repro.records.page import PageFullError, SlottedPage
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
        large object and stores its descriptor in the record.
        """
        self.schema.check_names(values)  # before any object is created
        prepared, created = self._prepare(values)
        body = self.schema.serialize(prepared)
        try:
            return self._place(body)
        except Exception:
            for oid in created:
                # Compensation, not cleanup: the record never existed, so
                # rolling back its LONG objects restores the pre-insert
                # image; nothing half-written survives into the store.
                self.manager.destroy(oid)  # repro-lint: disable=FLOW002 -- deliberate undo of freshly created objects on a failed insert; restores pre-op state rather than flushing post-crash state
            raise

    def get(self, rid: RecordId) -> dict[str, object]:
        """Fetch a record; LONG fields come back as object ids."""
        page = self._load_page(rid.page_id)
        if rid.slot >= page.n_slots or not page.slot_in_use(rid.slot):
            raise ObjectNotFoundError(f"no record at {rid}")
        return self.schema.deserialize(page.get(rid.slot))

    def update(self, rid: RecordId, **values: object) -> None:
        """Update short (INT/TEXT) fields of a record in place."""
        for name in values:
            if self.schema.field(name).kind is FieldKind.LONG:
                raise SchemaError(
                    f"{name!r} is a long field; use the *_long methods"
                )
        record = self.get(rid)
        record.update(values)
        body = self.schema.serialize(record)
        page = self._load_page(rid.page_id)
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

    def _prepare(
        self, values: dict[str, object]
    ) -> tuple[dict[str, object], list[int]]:
        prepared = dict(values)
        created: list[int] = []
        for field in self.schema.long_fields():
            value = prepared.get(field.name, b"")
            if isinstance(value, (bytes, bytearray, memoryview)):
                oid = self.manager.create(bytes(value))
                prepared[field.name] = oid
                created.append(oid)
            elif not isinstance(value, int):
                raise SchemaError(
                    f"{field.name!r} must be bytes (content) or an oid"
                )
        return prepared, created

    def _place(self, body: bytes) -> RecordId:
        for page_id in self._pages:
            page = self._load_page(page_id)
            if len(body) + 8 <= page.usable_space_after_compaction():
                try:
                    slot = page.insert(body)
                except PageFullError:
                    continue
                self._flush_page(page_id)
                return RecordId(page_id, slot)
        page_id = self.env.areas.meta.allocate(1)
        page = SlottedPage(self.env.config.page_size)
        self._pages.append(page_id)
        self._cache[page_id] = page
        slot = page.insert(body)  # may raise PageFullError: record > page
        self._flush_page(page_id)
        return RecordId(page_id, slot)

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
