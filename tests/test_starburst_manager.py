"""Directed tests for the Starburst long field manager (Sections 2.2, 3.5)."""

import pytest

from repro.core.errors import ByteRangeError, ObjectNotFoundError
from repro.exec.plan import MultiOp, delete_op, insert_op, replace_op
from repro.workload.model import ObjectModel
from tests.conftest import pattern_bytes

PAGE = 128


@pytest.fixture
def store(store_factory):
    return store_factory("starburst")


def segments(store, oid):
    return store.manager.descriptor_of(oid).segments


class TestGrowthPattern:
    def test_unknown_size_doubles(self, store):
        oid = store.create()
        for salt in range(6):
            store.append(oid, pattern_bytes(PAGE, salt=salt))
        allocs = [s.alloc_pages for s in segments(store, oid)]
        assert allocs == [1, 2, 4]  # 6 pages as 1 + 2 + 4 (last half full)

    def test_known_size_uses_max_segments(self, store_factory):
        store = store_factory("starburst")
        nbytes = 3 * PAGE * store.manager.max_segment_pages // 2
        oid = store.create(pattern_bytes(nbytes))
        allocs = [s.alloc_pages for s in segments(store, oid)]
        assert allocs[0] == store.manager.max_segment_pages
        assert allocs[-1] <= store.manager.max_segment_pages
        assert store.read(oid, 0, nbytes) == pattern_bytes(nbytes)

    def test_first_append_anchors_pattern(self, store):
        oid = store.create()
        store.append(oid, pattern_bytes(3 * PAGE))  # 3 pages
        store.append(oid, pattern_bytes(20 * PAGE, salt=1))
        allocs = [s.alloc_pages for s in segments(store, oid)]
        assert allocs[:3] == [3, 6, 12]

    def test_append_fills_slack_in_place(self, store):
        oid = store.create()
        store.append(oid, pattern_bytes(PAGE))
        store.append(oid, pattern_bytes(PAGE, salt=1))  # fills segment 2
        d = segments(store, oid)
        assert [s.alloc_pages for s in d] == [1, 2]
        assert d[-1].used_bytes == PAGE

    def test_trim_frees_unused_blocks(self, store):
        oid = store.create()
        store.append(oid, pattern_bytes(PAGE))
        store.append(oid, pattern_bytes(2 * PAGE, salt=1))
        store.append(oid, pattern_bytes(10, salt=2))  # 4-page segment, 1 used
        before = store.env.areas.data.allocated_pages
        store.manager.trim(oid)
        after = store.env.areas.data.allocated_pages
        assert after == before - 3
        last = segments(store, oid)[-1]
        assert last.alloc_pages == last.used_pages(PAGE)

    def test_append_after_trim_restores_pattern(self, store):
        oid = store.create()
        store.append(oid, pattern_bytes(PAGE))
        store.append(oid, pattern_bytes(PAGE + 10, salt=1))
        store.manager.trim(oid)
        expected = pattern_bytes(PAGE) + pattern_bytes(PAGE + 10, salt=1)
        more = pattern_bytes(3 * PAGE, salt=2)
        store.append(oid, more)
        expected += more
        assert store.read(oid, 0, len(expected)) == expected
        store.manager.descriptor_of(oid).check_invariants()


class TestReads:
    def test_read_across_segments(self, store):
        data = pattern_bytes(10 * PAGE)
        oid = store.create()
        store.append(oid, data)
        assert store.read(oid, PAGE - 5, 2 * PAGE) == data[PAGE - 5 : 3 * PAGE - 5]

    def test_small_read_costs_one_page_access(self, store_factory):
        # Table 2: a 100-byte Starburst read costs 37 ms = one seek plus
        # one page transfer; the descriptor itself is not charged.
        store = store_factory("starburst")
        oid = store.create(pattern_bytes(20 * PAGE))
        before = store.snapshot()
        store.read(oid, 5 * PAGE + 10, 20)
        delta = store.stats.delta(before)
        assert delta.read_calls == 1
        assert delta.pages_read == 1


class TestLengthChangingUpdates:
    def test_insert_middle(self, store):
        data = pattern_bytes(8 * PAGE)
        oid = store.create()
        store.append(oid, data)
        patch = pattern_bytes(333, salt=7)
        store.insert(oid, 1000, patch)
        expected = data[:1000] + patch + data[1000:]
        assert store.read(oid, 0, len(expected)) == expected
        store.manager.descriptor_of(oid).check_invariants()

    def test_insert_rewrites_tail_segments(self, store):
        data = pattern_bytes(8 * PAGE)
        oid = store.create()
        store.append(oid, data)
        pages_before = [s.page_id for s in segments(store, oid)]
        index, _ = store.manager.descriptor_of(oid).locate(1000)
        store.insert(oid, 1000, b"x")
        pages_after = [s.page_id for s in segments(store, oid)]
        # Segments before the affected one are untouched; the affected one
        # and everything to its right moved (shadowing).
        assert pages_after[:index] == pages_before[:index]
        assert pages_after[index] != pages_before[index]

    def test_delete_middle(self, store):
        data = pattern_bytes(8 * PAGE)
        oid = store.create()
        store.append(oid, data)
        store.delete(oid, 100, 3 * PAGE)
        expected = data[:100] + data[100 + 3 * PAGE :]
        assert store.read(oid, 0, len(expected)) == expected
        store.manager.descriptor_of(oid).check_invariants()

    def test_delete_everything(self, store):
        oid = store.create(pattern_bytes(5 * PAGE))
        store.delete(oid, 0, 5 * PAGE)
        assert store.size(oid) == 0
        assert segments(store, oid) == []

    def test_insert_at_end_is_cheap_append(self, store):
        oid = store.create(pattern_bytes(4 * PAGE))
        before = store.snapshot()
        store.insert(oid, 4 * PAGE, b"tail")
        # No tail rewrite: just the rightmost page read+write.
        assert store.stats.delta(before).pages_transferred <= 3

    def test_update_cost_dominated_by_tail_copy(self, store):
        # Inserts get more expensive the earlier they land in the object
        # (more segments to the right must be copied) — the structural
        # weakness Section 4.4.3 measures.
        oid = store.create()
        store.append(oid, pattern_bytes(64 * PAGE))
        before = store.snapshot()
        store.insert(oid, 10, b"x")
        early_cost = store.elapsed_ms(before)
        before = store.snapshot()
        store.insert(oid, store.size(oid) - 10, b"x")
        late_cost = store.elapsed_ms(before)
        assert early_cost > late_cost


class TestReplace:
    def test_replace_roundtrip(self, store):
        data = pattern_bytes(6 * PAGE)
        oid = store.create()
        store.append(oid, data)
        patch = pattern_bytes(2 * PAGE, salt=9)
        store.replace(oid, PAGE + 7, patch)
        expected = data[: PAGE + 7] + patch + data[PAGE + 7 + len(patch) :]
        assert store.read(oid, 0, len(expected)) == expected
        assert store.size(oid) == len(data)

    def test_replace_shadows_affected_segment(self, store):
        oid = store.create()
        store.append(oid, pattern_bytes(4 * PAGE))
        pages_before = [s.page_id for s in segments(store, oid)]
        store.replace(oid, 0, b"q")
        pages_after = [s.page_id for s in segments(store, oid)]
        assert pages_after[0] != pages_before[0]
        assert pages_after[1:] == pages_before[1:]

    def test_bounds_checked(self, store):
        oid = store.create(b"abc")
        with pytest.raises(ByteRangeError):
            store.replace(oid, 2, b"too long")


class TestOffsetsOnSeveralSegments:
    """The descriptor is walked once per operation: the offset's segment
    and the offset within it both come from that walk."""

    SIZE = 5 * PAGE + 40          # segments of 1, 2 and 4 pages (last: 2.3)

    @pytest.fixture
    def field(self, store):
        oid = store.create()
        for salt in range(6):
            nbytes = PAGE if salt < 5 else 40
            store.append(oid, pattern_bytes(nbytes, salt=salt))
        assert [s.alloc_pages for s in segments(store, oid)] == [1, 2, 4]
        return oid

    @pytest.mark.parametrize("offset", [
        0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE - 1, 3 * PAGE, 5 * PAGE + 39,
    ])
    def test_every_update_lands_at_its_offset(self, store, field, offset):
        model = ObjectModel()
        model.create(field, store.read(field, 0, self.SIZE))
        assert store.read(field, offset, 1) == model.read(field, offset, 1)
        for op in (
            insert_op(offset, b"<inserted>"), delete_op(offset, 3),
            replace_op(offset, b"!!"),
        ):
            model.run(store, MultiOp(field, op))
            assert model.differences(store) == []
        store.manager.descriptor_of(field).check_invariants()


class TestDestroy:
    def test_destroy_frees_everything(self, store):
        oid = store.create(pattern_bytes(20 * PAGE))
        store.destroy(oid)
        assert store.env.areas.data.allocated_pages == 0
        assert store.env.areas.meta.allocated_pages == 0
        with pytest.raises(ObjectNotFoundError):
            store.size(oid)
