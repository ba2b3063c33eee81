"""Behaviour shared by all three managers, parametrized over schemes."""

import pytest

from repro.core.errors import ObjectNotFoundError
from repro.exec.plan import MultiOp, append_op, delete_op, insert_op, replace_op
from repro.workload.model import ObjectModel
from tests.conftest import pattern_bytes

PAGE = 128
SCHEMES = ("esm", "starburst", "eos")


@pytest.fixture(params=SCHEMES)
def store(request, store_factory):
    return store_factory(request.param)


class TestLifecycle:
    def test_create_empty(self, store):
        oid = store.create()
        assert store.size(oid) == 0
        assert store.utilization(oid) <= 1.0

    def test_oids_are_unique(self, store):
        oids = {store.create() for _ in range(10)}
        assert len(oids) == 10

    def test_destroy_unknown_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.destroy(424242)


class TestZeroLengthOperations:
    def test_empty_read(self, store):
        oid = store.create(b"abc")
        assert store.read(oid, 1, 0) == b""

    def test_empty_append(self, store):
        oid = store.create(b"abc")
        store.append(oid, b"")
        assert store.size(oid) == 3

    def test_empty_insert(self, store):
        oid = store.create(b"abc")
        store.insert(oid, 1, b"")
        assert store.read(oid, 0, 3) == b"abc"

    def test_empty_delete(self, store):
        oid = store.create(b"abc")
        store.delete(oid, 1, 0)
        assert store.size(oid) == 3

    def test_empty_replace(self, store):
        oid = store.create(b"abc")
        store.replace(oid, 1, b"")
        assert store.read(oid, 0, 3) == b"abc"


class TestSemantics:
    def test_piecewise_build_equals_bulk_create(self, store_factory, store):
        data = pattern_bytes(7 * PAGE + 13)
        bulk_oid = store.create(data)
        piece_store = store_factory(store.scheme)
        piece_oid = piece_store.create()
        for start in range(0, len(data), 300):
            piece_store.append(piece_oid, data[start : start + 300])
        assert (
            store.read(bulk_oid, 0, len(data))
            == piece_store.read(piece_oid, 0, len(data))
            == data
        )

    def test_interleaved_operations(self, store):
        data, model = pattern_bytes(6 * PAGE), ObjectModel()
        oid = store.create(data)
        model.create(oid, data)
        for op in (
            insert_op(100, pattern_bytes(77, salt=1)),
            delete_op(400, 350),
            replace_op(50, pattern_bytes(200, salt=2)),
            insert_op(0, pattern_bytes(5, salt=3)),
            append_op(pattern_bytes(300, salt=4)),
            delete_op(0, 10),
        ):
            model.run(store, MultiOp(oid, op))
            assert model.differences(store) == []

    def test_reads_do_not_mutate(self, store):
        data = pattern_bytes(4 * PAGE)
        oid = store.create(data)
        for offset in (0, 13, PAGE, 3 * PAGE - 1):
            store.read(oid, offset, min(200, len(data) - offset))
        assert store.read(oid, 0, len(data)) == data
        assert store.size(oid) == len(data)


class TestUtilization:
    def test_utilization_in_unit_range(self, store):
        oid = store.create(pattern_bytes(5 * PAGE + 17))
        assert 0.0 < store.utilization(oid) <= 1.0

    def test_allocated_pages_cover_object(self, store):
        nbytes = 5 * PAGE + 17
        oid = store.create(pattern_bytes(nbytes))
        assert store.allocated_pages(oid) * PAGE >= nbytes


class TestMultipleObjects:
    def test_objects_are_isolated(self, store):
        a = store.create(pattern_bytes(3 * PAGE, salt=1))
        b = store.create(pattern_bytes(3 * PAGE, salt=2))
        store.insert(a, 10, b"AAAA")
        store.delete(b, 0, 50)
        assert store.read(a, 10, 4) == b"AAAA"
        assert store.read(b, 0, 10) == pattern_bytes(3 * PAGE, salt=2)[50:60]
