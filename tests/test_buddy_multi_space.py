"""Multi-space buddy allocator behaviour and physical adjacency."""

import pytest

from repro.buddy.allocator import BuddyAllocator
from repro.buffer.pool import BufferPool
from repro.core.config import small_page_config
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel


@pytest.fixture
def allocator():
    config = small_page_config()  # 512-block spaces, 128-page max segment
    cost = CostModel(config)
    disk = SimulatedDisk(config, cost)
    pool = BufferPool(config, disk)
    return BuddyAllocator(config, pool, base_page_id=0, name="multi")


def space_of(allocator, page_id):
    return (page_id - allocator.base_page_id) // allocator._stride_pages


class TestSegmentsNeverCrossSpaces:
    def test_many_allocations_stay_within_one_space_each(self, allocator):
        for size in (3, 17, 64, 128, 5, 128, 128, 128, 77):
            start = allocator.allocate(size)
            assert space_of(allocator, start) == space_of(
                allocator, start + size - 1
            ), "segment crosses a buddy space boundary"

    def test_directory_pages_never_allocated_as_data(self, allocator):
        stride = allocator._stride_pages
        seen = []
        for _ in range(300):
            start = allocator.allocate(7)
            seen.append((start, 7))
            for page in range(start, start + 7):
                relative = page - allocator.base_page_id
                assert relative % stride != 0, "data overlaps a directory"


class TestSpaceReuse:
    def test_freed_first_space_is_reused_before_growing(self, allocator):
        config = allocator.config
        # Fill space 0 completely (the area starts with no spaces).
        segments = [allocator.allocate(config.max_segment_pages)]
        while allocator.space_count == 1:
            segments.append(allocator.allocate(config.max_segment_pages))
        # The last allocation opened space 1; free everything in space 0.
        for start in segments[:-1]:
            allocator.free(start, config.max_segment_pages)
        spaces_now = allocator.space_count
        start = allocator.allocate(config.max_segment_pages)
        assert space_of(allocator, start) == 0
        assert allocator.space_count == spaces_now

    def test_superdirectory_recovers_after_frees(self, allocator):
        config = allocator.config
        start = allocator.allocate(config.max_segment_pages)
        while allocator.space_count < 2:
            allocator.allocate(config.max_segment_pages)
        # Space 0 is believed full-ish; freeing must correct the entry.
        allocator.free(start, config.max_segment_pages)
        assert allocator.superdirectory_entry(0) >= config.max_segment_order


class TestAccountingAcrossSpaces:
    def test_allocated_pages_sums_spaces(self, allocator):
        config = allocator.config
        total = 0
        while allocator.space_count < 3:
            allocator.allocate(config.max_segment_pages)
            total += config.max_segment_pages
        assert allocator.allocated_pages == total
        assert allocator.directory_pages == allocator.space_count
        allocator.check_invariants()
