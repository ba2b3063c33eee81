"""Tests for the record store with long fields over each scheme."""

import pytest

from repro.core.api import make_manager
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import IOFaultError, ObjectNotFoundError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.records.schema import Schema, SchemaError
from repro.records.store import RecordId, RecordStore
from tests.conftest import pattern_bytes

PAGE = 128
SCHEMES = ("esm", "starburst", "eos", "blockbased")


def _record_store(scheme):
    env = StorageEnvironment(small_page_config())
    manager = make_manager(scheme, env, leaf_pages=2, threshold_pages=2)
    schema = Schema.of(name="text", age="int", picture="long", voice="long")
    return RecordStore(schema, manager)


@pytest.fixture(params=SCHEMES)
def store(request):
    return _record_store(request.param)


class TestRecords:
    def test_insert_and_get(self, store):
        rid = store.insert(
            name="Ada", age=36,
            picture=pattern_bytes(3 * PAGE),
            voice=pattern_bytes(5 * PAGE, salt=1),
        )
        record = store.get(rid)
        assert record["name"] == "Ada"
        assert record["age"] == 36
        assert isinstance(record["picture"], int)

    def test_long_fields_independent(self, store):
        # The paper's point: long fields of the same object can be
        # treated independently.
        picture = pattern_bytes(3 * PAGE)
        voice = pattern_bytes(5 * PAGE, salt=1)
        rid = store.insert(name="Ada", age=36, picture=picture, voice=voice)
        assert store.read_long(rid, "picture", 0, len(picture)) == picture
        store.replace_long(rid, "voice", 10, b"EDIT")
        assert store.read_long(rid, "picture", 0, len(picture)) == picture
        assert store.read_long(rid, "voice", 10, 4) == b"EDIT"

    def test_long_byte_range_operations(self, store):
        rid = store.insert(name="x", age=0,
                           picture=pattern_bytes(2 * PAGE), voice=b"v")
        store.append_long(rid, "picture", b"TAIL")
        store.insert_long(rid, "picture", 5, b"MID")
        store.delete_long(rid, "picture", 0, 2)
        expected = bytearray(pattern_bytes(2 * PAGE))
        expected.extend(b"TAIL")
        expected[5:5] = b"MID"
        del expected[0:2]
        assert store.long_size(rid, "picture") == len(expected)
        assert (
            store.read_long(rid, "picture", 0, len(expected))
            == bytes(expected)
        )

    def test_update_short_fields(self, store):
        rid = store.insert(name="Ada", age=36, picture=b"p", voice=b"v")
        store.update(rid, age=37, name="Countess Ada")
        record = store.get(rid)
        assert record["age"] == 37
        assert record["name"] == "Countess Ada"
        # Long fields untouched.
        assert store.read_long(rid, "picture", 0, 1) == b"p"

    def test_update_long_field_via_update_rejected(self, store):
        rid = store.insert(name="x", age=0, picture=b"p", voice=b"v")
        with pytest.raises(SchemaError):
            store.update(rid, picture=123)

    def test_delete_destroys_long_objects(self, store):
        rid = store.insert(name="x", age=0,
                           picture=pattern_bytes(4 * PAGE), voice=b"v")
        data_pages_with = store.env.areas.data.allocated_pages
        store.delete(rid)
        assert store.env.areas.data.allocated_pages < data_pages_with
        with pytest.raises(ObjectNotFoundError):
            store.get(rid)

    def test_scan(self, store):
        rids = [
            store.insert(name=f"p{i}", age=i, picture=b"p", voice=b"v")
            for i in range(5)
        ]
        store.delete(rids[2])
        found = {record["name"] for _rid, record in store.scan()}
        assert found == {"p0", "p1", "p3", "p4"}

    def test_many_records_span_pages(self, store):
        rids = [
            store.insert(name="n" * 20, age=i, picture=b"p", voice=b"v")
            for i in range(40)
        ]
        assert len({rid.page_id for rid in rids}) > 1
        for i, rid in enumerate(rids):
            assert store.get(rid)["age"] == i

    def test_emptied_record_page_is_freed(self, store):
        # Regression: deleting the last record on a page used to leave
        # the meta page allocated forever (an fsck-visible leak).
        meta = store.env.areas.meta
        baseline = meta.allocated_pages
        rid = store.insert(name="x", age=0, picture=b"p", voice=b"v")
        assert meta.allocated_pages > baseline
        store.delete(rid)
        assert meta.allocated_pages == baseline
        assert rid.page_id not in store._pages

    def test_freed_page_reports_object_not_found(self, store):
        # Regression: after the page was returned to the allocator, a
        # stale rid must fail with ObjectNotFoundError, not a corruption
        # error from reading the recycled (zeroed) page.
        rid = store.insert(name="x", age=0, picture=b"p", voice=b"v")
        store.delete(rid)
        with pytest.raises(ObjectNotFoundError):
            store.get(rid)
        with pytest.raises(ObjectNotFoundError):
            store.update(rid, age=1)

    def test_reinsert_after_page_free_reuses_space(self, store):
        rids = [
            store.insert(name=f"p{i}", age=i, picture=b"p", voice=b"v")
            for i in range(3)
        ]
        for rid in rids:
            store.delete(rid)
        rid = store.insert(name="again", age=9, picture=b"p", voice=b"v")
        assert store.get(rid)["name"] == "again"

    def test_record_io_is_charged(self, store):
        rid = store.insert(name="x", age=0, picture=b"p", voice=b"v")
        assert store.env.cost.stats.write_calls > 0
        before = store.env.cost.snapshot()
        store.get(rid)
        # Page accesses go through the pool (hit here, but accounted).
        assert store.env.pool.stats.hits + store.env.pool.stats.misses > 0

    def test_wrong_long_field_name(self, store):
        rid = store.insert(name="x", age=0, picture=b"p", voice=b"v")
        with pytest.raises(SchemaError):
            store.read_long(rid, "age", 0, 1)

    def test_oversized_record_update(self, store):
        rid = store.insert(name="small", age=0, picture=b"p", voice=b"v")
        stats = store.env.cost.stats
        writes = stats.write_calls
        with pytest.raises(ReproError, match="overflows its page"):
            store.update(rid, name="N" * (PAGE * 2))
        assert stats.write_calls == writes
        assert store.get(rid)["name"] == "small"


class TestOnePage:
    """A 128-byte page holds 120 bytes of bodies and 4-byte slots; a
    text field serializes as its characters plus 4 bytes."""

    @staticmethod
    def text_store():
        env = StorageEnvironment(small_page_config())
        return RecordStore(Schema.of(name="text"), make_manager("eos", env))

    def test_a_record_takes_the_last_usable_bytes(self):
        store = self.text_store()
        first = store.insert(name="x" * 90)  # 94 + 4: 22 bytes left
        second = store.insert(name="y" * 11)  # 15 + 4
        assert second.page_id == first.page_id

    def test_a_record_reuses_a_tombstoned_slot_at_the_usable_size(self):
        store = self.text_store()
        first = store.insert(name="x" * 46)
        store.insert(name="y" * 11)
        store.delete(first)  # 120 - 8 - 15 = 97 usable, slot 0 free
        assert store.insert(name="z" * 93) == first

    def test_an_update_touches_its_page_once(self):
        store = self.text_store()
        rid = store.insert(name="Ada")
        store.get(rid)  # resident from here on
        stats = store.env.pool.stats
        hits, misses = stats.hits, stats.misses
        store.update(rid, name="Bob")
        assert (stats.hits, stats.misses) == (hits + 1, misses)
        assert store.get(rid) == {"name": "Bob"}


#: The record a failed insert tries to place.
_NEW = dict(name="new", age=7, picture=pattern_bytes(3 * PAGE), voice=b"v")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("placed", [0, 1], ids=["fresh-page", "beside-one"])
def test_a_failed_record_write_leaves_nothing_behind(scheme, placed):
    """The record page's write fails for good: the insert destroys the
    LONG objects it created and frees a fresh page once the handler has
    ended, and the store's pages keep their records."""
    dry, store = _record_store(scheme), _record_store(scheme)
    for each in (dry, store):
        for age in range(placed):
            each.insert(name="old", age=age, picture=b"p", voice=b"v")
    # The record page's write is the insert's last: count on a twin.
    with FaultInjector(dry.env, FaultPlan()) as idle:
        dry.insert(**_NEW)
    areas = store.env.areas
    before = (
        sorted(store.manager.oids()), list(store.scan()),
        list(areas.meta.allocated_page_ids()),
        list(areas.data.allocated_page_ids()),
    )
    plan = FaultPlan(write_faults=at(idle.write_calls), transient=False)
    with FaultInjector(store.env, plan) as injector:
        with pytest.raises(IOFaultError):
            store.insert(**_NEW)
    assert injector.write_calls == idle.write_calls
    assert (
        sorted(store.manager.oids()), list(store.scan()),
        list(areas.meta.allocated_page_ids()),
        list(areas.data.allocated_page_ids()),
    ) == before
    rid = store.insert(**_NEW)
    assert store.get(rid)["name"] == "new"
    assert len(list(store.scan())) == placed + 1


class TestRecordId:
    def test_value_semantics(self):
        assert RecordId(1, 2) == RecordId(1, 2)
        assert RecordId(1, 2) != RecordId(1, 3)
