"""Tests for the Starburst long field descriptor (Section 2.2)."""

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.config import small_page_config
from repro.core.errors import StorageCorruptionError
from repro.starburst.descriptor import (
    LongFieldDescriptor,
    LongFieldTooLargeError,
    Segment,
    pattern_pages,
)

CONFIG = small_page_config(page_size=256)


def descriptor_with(sizes_pages, used_last):
    d = LongFieldDescriptor(page_id=1, config=CONFIG)
    page = DATA_AREA_BASE
    for index, pages in enumerate(sizes_pages):
        used = pages * CONFIG.page_size
        if index == len(sizes_pages) - 1:
            used = used_last
        d.segments.append(Segment(page_id=page, alloc_pages=pages,
                                  used_bytes=used))
        page += pages
    return d


class TestPattern:
    def test_doubling(self):
        assert [pattern_pages(1, i, 64) for i in range(8)] == [
            1, 2, 4, 8, 16, 32, 64, 64,
        ]

    def test_non_power_of_two_anchor(self):
        assert [pattern_pages(3, i, 100) for i in range(5)] == [
            3, 6, 12, 24, 48,
        ]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pattern_pages(0, 1, 8)
        with pytest.raises(ValueError):
            pattern_pages(1, -1, 8)

    def test_figure_2_example(self):
        # Figure 2: an 1830-byte field (100-byte pages) occupies segments
        # of 100, 200, 400, 800, and 330 bytes: doubling, last trimmed.
        sizes = []
        remaining = 1830
        index = 0
        while remaining > 0:
            capacity = pattern_pages(1, index, 1024) * 100
            sizes.append(min(capacity, remaining))
            remaining -= sizes[-1]
            index += 1
        assert sizes == [100, 200, 400, 800, 330]


class TestLocate:
    def test_locate_maps_offsets(self):
        d = descriptor_with([1, 2, 4], used_last=100)
        assert d.locate(0) == (0, 0)
        assert d.locate(255) == (0, 255)
        assert d.locate(256) == (1, 0)
        assert d.locate(768) == (2, 0)
        assert d.locate(867) == (2, 99)

    def test_locate_out_of_bounds(self):
        d = descriptor_with([1], used_last=100)
        with pytest.raises(StorageCorruptionError):
            d.locate(100)

    @pytest.mark.parametrize("offset", [-868, -1, 868, 869, 10**9])
    def test_locate_names_the_offset_no_segment_holds(self, offset):
        # One pass finds the segment or runs off the end: the same typed
        # error, with the field's size, as when the size was summed first.
        d = descriptor_with([1, 2, 4], used_last=100)
        with pytest.raises(
            StorageCorruptionError,
            match=f"offset {offset} outside field of 868 bytes",
        ):
            d.locate(offset)

    def test_locate_in_an_empty_field(self):
        d = descriptor_with([], used_last=0)
        with pytest.raises(StorageCorruptionError, match="of 0 bytes"):
            d.locate(0)

    def test_locate_agrees_with_the_running_sum_everywhere(self):
        d = descriptor_with([1, 2, 4], used_last=100)
        starts = [0, 256, 768]
        for offset in range(868):
            index = max(i for i, start in enumerate(starts) if start <= offset)
            assert d.locate(offset) == (index, offset - starts[index])


class TestSerialization:
    def test_roundtrip(self):
        d = descriptor_with([1, 2, 4], used_last=300)
        data = d.snapshot(DATA_AREA_BASE)()
        rebuilt = LongFieldDescriptor.deserialize(
            data, d.page_id, CONFIG, DATA_AREA_BASE
        )
        assert [s.page_id for s in rebuilt.segments] == [
            s.page_id for s in d.segments
        ]
        assert [s.alloc_pages for s in rebuilt.segments] == [1, 2, 4]
        assert rebuilt.total_bytes == d.total_bytes
        rebuilt.check_invariants()

    def test_trimmed_last_roundtrip(self):
        d = descriptor_with([1, 2, 2], used_last=300)  # last trimmed to 2
        rebuilt = LongFieldDescriptor.deserialize(
            d.snapshot(DATA_AREA_BASE)(), d.page_id, CONFIG, DATA_AREA_BASE
        )
        assert rebuilt.segments[-1].alloc_pages == 2
        assert rebuilt.segments[-1].used_bytes == 300

    def test_empty_roundtrip(self):
        d = LongFieldDescriptor(page_id=1, config=CONFIG)
        rebuilt = LongFieldDescriptor.deserialize(
            d.snapshot(DATA_AREA_BASE)(), 1, CONFIG, DATA_AREA_BASE
        )
        assert rebuilt.segments == []

    def test_wrong_magic_rejected(self):
        with pytest.raises(StorageCorruptionError):
            LongFieldDescriptor.deserialize(
                bytes(256), 1, CONFIG, DATA_AREA_BASE
            )

    def test_capacity_limit(self):
        # The pointer array caps the field size, as in the real system
        # ("handles objects up to 1.5 gigabytes").
        d = LongFieldDescriptor(page_id=1, config=CONFIG)
        max_segments = d.max_segments()
        with pytest.raises(LongFieldTooLargeError):
            d.check_capacity(max_segments + 1)
        d.check_capacity(max_segments)
        # A descriptor commit refuses it before anything is deferred.
        d.segments = [Segment(DATA_AREA_BASE, 1, CONFIG.page_size)] * (
            max_segments + 1
        )
        with pytest.raises(LongFieldTooLargeError):
            d.snapshot(DATA_AREA_BASE)


class TestInvariants:
    def test_full_intermediates_required(self):
        d = descriptor_with([1, 2, 4], used_last=100)
        d.segments[0].used_bytes -= 1
        with pytest.raises(AssertionError):
            d.check_invariants()

    def test_pattern_required(self):
        d = descriptor_with([1, 3, 4], used_last=100)
        with pytest.raises(AssertionError):
            d.check_invariants()
