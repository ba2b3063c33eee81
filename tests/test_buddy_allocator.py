"""Tests for the multi-space buddy allocator and its superdirectory."""

import pytest

from repro.buddy.allocator import BuddyAllocator
from repro.buffer.pool import BufferPool
from repro.core.config import small_page_config
from repro.core.errors import AllocationError
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel


@pytest.fixture
def setup():
    config = small_page_config()
    cost = CostModel(config)
    disk = SimulatedDisk(config, cost)
    pool = BufferPool(config, disk)
    allocator = BuddyAllocator(config, pool, base_page_id=0, name="test")
    return config, cost, allocator


class TestAllocate:
    def test_first_allocation_creates_a_space(self, setup):
        _config, _cost, allocator = setup
        page = allocator.allocate(4)
        assert allocator.space_count == 1
        assert page >= 1  # page 0 is the first directory

    def test_allocations_do_not_overlap(self, setup):
        _config, _cost, allocator = setup
        seen = set()
        for _ in range(50):
            page = allocator.allocate(3)
            pages = set(range(page, page + 3))
            assert not pages & seen
            seen |= pages

    def test_grows_new_space_when_full(self, setup):
        config, _cost, allocator = setup
        blocks = config.buddy_space_blocks
        allocator.allocate(config.max_segment_pages)
        # Fill the remainder of space 0, then force growth.
        while True:
            allocator.allocate(config.max_segment_pages)
            if allocator.space_count > 1:
                break
        assert allocator.space_count == 2
        assert allocator.allocated_pages > blocks - config.max_segment_pages

    def test_rejects_oversized_segment(self, setup):
        config, _cost, allocator = setup
        with pytest.raises(AllocationError):
            allocator.allocate(config.max_segment_pages + 1)

    def test_rejects_nonpositive(self, setup):
        _config, _cost, allocator = setup
        with pytest.raises(AllocationError):
            allocator.allocate(0)


class TestFree:
    def test_free_returns_space(self, setup):
        _config, _cost, allocator = setup
        page = allocator.allocate(8)
        allocator.free(page, 8)
        assert allocator.allocated_pages == 0

    def test_partial_free(self, setup):
        _config, _cost, allocator = setup
        page = allocator.allocate(8)
        allocator.free(page + 5, 3)
        assert allocator.allocated_pages == 5

    def test_free_directory_page_rejected(self, setup):
        _config, _cost, allocator = setup
        allocator.allocate(1)
        with pytest.raises(AllocationError):
            allocator.free(0, 1)  # page 0 is the directory

    def test_free_foreign_page_rejected(self, setup):
        _config, _cost, allocator = setup
        with pytest.raises(AllocationError):
            allocator.free(-5, 1)

    def test_freed_pages_are_discarded_from_disk(self, setup):
        _config, _cost, allocator = setup
        page = allocator.allocate(2)
        allocator.pool.disk.write_pages(page, 2, b"data")
        allocator.free(page, 2)
        assert not allocator.pool.disk.was_written(page)

    def test_free_drops_the_run_before_it_visits_the_directory(self):
        """The order of a free's pool effects is part of the simulated
        clock: the run's frames go first, so a directory miss finds room
        instead of evicting (and writing back) a frame for nothing."""
        config = small_page_config(buffer_pool_pages=4)
        cost = CostModel(config)
        pool = BufferPool(config, SimulatedDisk(config, cost))
        allocator = BuddyAllocator(config, pool, base_page_id=0, name="test")
        page = allocator.allocate(4)
        pool.flush_all()
        for offset in range(4):     # fill the pool: the directory leaves
            pool.fix_new(page + offset, bytes(config.page_size))
            pool.unfix(page + offset, dirty=True)
        assert not pool.is_resident(0)
        before = cost.snapshot()
        evictions = pool.stats.evictions
        allocator.free(page, 4)
        spent = cost.stats.delta(before)
        assert (spent.read_calls, spent.write_calls) == (1, 0)
        assert pool.stats.evictions == evictions


class TestIsAllocated:
    def test_only_allocated_data_pages_are(self, checked, setup):
        _config, _cost, allocator = setup
        page = allocator.allocate(1)
        assert allocator.is_allocated(page)
        allocator.free(page, 1)
        assert not allocator.is_allocated(page)
        # A directory page and a page past the area are no data pages:
        # is_allocated catches the refused lookup and answers False.
        assert not allocator.is_allocated(0)
        assert not allocator.is_allocated(10**6)


class TestSuperdirectory:
    def test_starts_optimistic(self, setup):
        config, _cost, allocator = setup
        allocator.allocate(1)
        # After the visit the entry reflects the real largest free extent.
        assert (
            allocator.superdirectory_entry(0) < config.buddy_space_order
        ) or config.buddy_space_blocks > 2

    def test_corrected_entry_avoids_useless_visits(self, setup):
        config, cost, allocator = setup
        allocator.allocate(config.max_segment_pages)
        # Exhaust space 0 of max-size extents.
        while allocator.space_count == 1:
            allocator.allocate(config.max_segment_pages)
        reads_before = cost.stats.read_calls
        # Space 0 is known to be unable to hold a max segment now; new
        # allocations must not re-read its directory.
        allocator.allocate(config.max_segment_pages)
        reads_after = cost.stats.read_calls
        assert reads_after - reads_before <= 1

    def test_steady_state_alloc_costs_at_most_one_access(self, setup):
        # "on a steady state, the cost of allocating and deallocating a
        #  segment from a buddy space is going to be at most 1 disk
        #  access" (Section 3.1).
        _config, cost, allocator = setup
        allocator.allocate(2)  # warm up: space exists, directory cached
        before = cost.stats.io_calls
        for _ in range(10):
            allocator.allocate(2)
        per_alloc = (cost.stats.io_calls - before) / 10
        assert per_alloc <= 1.0


class TestInvariants:
    def test_check_invariants_after_churn(self, setup):
        _config, _cost, allocator = setup
        live = []
        for i in range(80):
            live.append((allocator.allocate(1 + i % 7), 1 + i % 7))
            if i % 3 == 0:
                page, size = live.pop(0)
                allocator.free(page, size)
        allocator.check_invariants()
        assert allocator.allocated_pages == sum(s for _p, s in live)
