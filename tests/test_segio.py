"""Unit tests for the hybrid segment I/O layer (Figure 4, Section 3.2)."""

import pytest

from repro.buffer.pool import BufferPool
from repro.core.config import small_page_config
from repro.core.errors import ByteRangeError
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel
from repro.segio import SegmentIO

PAGE = 128


def make_segio(pool_pages=12, max_buffered=4):
    config = small_page_config(
        page_size=PAGE,
        buffer_pool_pages=pool_pages,
        max_buffered_segment_pages=max_buffered,
    )
    cost = CostModel(config)
    disk = SimulatedDisk(config, cost)
    pool = BufferPool(config, disk)
    return config, cost, disk, SegmentIO(config, pool)


def fill(disk, start, n_pages):
    data = bytes(i % 251 for i in range(n_pages * PAGE))
    disk.poke_pages(start, data)
    return data


class TestSmallReads:
    def test_small_segment_read_in_one_step_into_pool(self):
        _config, cost, disk, segio = make_segio()
        data = fill(disk, 100, 3)
        got = segio.read_pages(100, 3)
        assert got == data
        assert cost.stats.read_calls == 1
        assert segio.pool.is_resident(101)

    def test_rereading_buffered_segment_is_free(self):
        _config, cost, disk, segio = make_segio()
        fill(disk, 100, 2)
        segio.read_pages(100, 2)
        before = cost.stats.io_calls
        segio.read_pages(100, 2)
        assert cost.stats.io_calls == before

    def test_read_range_slices_bytes(self):
        _config, _cost, disk, segio = make_segio()
        data = fill(disk, 100, 3)
        assert segio.read_range(100, 130, 50) == data[130:180]

    def test_read_range_reads_only_needed_pages(self):
        # "when few bytes need to be read from a segment, only those pages
        #  that contain the desired bytes are read" (Section 3.3).
        _config, cost, disk, segio = make_segio()
        fill(disk, 100, 4)
        segio.read_range(100, 2 * PAGE + 5, 10)  # only page 102
        assert cost.stats.pages_read == 1

    def test_negative_range_rejected(self):
        _config, _cost, _disk, segio = make_segio()
        with pytest.raises(ByteRangeError):
            segio.read_range(100, -1, 10)


class TestLargeReads:
    def test_aligned_large_read_is_one_direct_io(self):
        _config, cost, disk, segio = make_segio(max_buffered=4)
        data = fill(disk, 100, 8)
        got = segio.read_boundary_unaligned(100, 0, 8 * PAGE)
        assert got == data
        assert cost.stats.read_calls == 1
        assert cost.stats.pages_read == 8
        assert not segio.pool.is_resident(100)

    def test_unaligned_large_read_uses_three_steps(self):
        # The 3-step I/O of Figure 4: first block via the pool, interior
        # directly, last block via the pool.
        _config, cost, disk, segio = make_segio(max_buffered=4)
        data = fill(disk, 100, 8)
        got = segio.read_boundary_unaligned(100, 10, 8 * PAGE - 20)
        assert got == data[10 : 8 * PAGE - 10]
        assert cost.stats.read_calls == 3
        assert cost.stats.pages_read == 8
        assert segio.pool.is_resident(100)
        assert segio.pool.is_resident(107)
        assert not segio.pool.is_resident(103)

    def test_left_unaligned_only_uses_two_steps(self):
        _config, cost, disk, segio = make_segio(max_buffered=4)
        fill(disk, 100, 8)
        segio.read_boundary_unaligned(100, 10, 8 * PAGE - 10)
        assert cost.stats.read_calls == 2

    def test_boundary_blocks_cached_for_future_reads(self):
        _config, cost, disk, segio = make_segio(max_buffered=4)
        fill(disk, 100, 8)
        segio.read_boundary_unaligned(100, 10, 8 * PAGE - 20)
        before = cost.stats.io_calls
        segio.read_range(100, 20, 30)  # inside cached first page
        assert cost.stats.io_calls == before


class TestWrites:
    def test_write_is_one_call(self):
        _config, cost, _disk, segio = make_segio()
        segio.write_pages(200, bytes(5 * PAGE))
        assert cost.stats.write_calls == 1
        assert cost.stats.pages_written == 5

    def test_write_refreshes_resident_copies(self):
        _config, _cost, disk, segio = make_segio()
        fill(disk, 300, 2)
        segio.read_pages(300, 2)  # cache both pages
        segio.write_pages(300, b"NEW" + bytes(2 * PAGE - 3))
        assert segio.read_range(300, 0, 3) == b"NEW"

    def test_partial_page_write_rounds_up(self):
        _config, cost, _disk, segio = make_segio()
        segio.write_pages(200, bytes(PAGE + 1))
        assert cost.stats.pages_written == 2

    def test_explicit_page_count(self):
        _config, cost, _disk, segio = make_segio()
        segio.write_pages(200, b"x", n_pages=4)
        assert cost.stats.pages_written == 4


class TestAblationModes:
    def test_bypass_pool_never_buffers(self):
        _config, cost, disk, segio = make_segio(max_buffered=0)
        fill(disk, 100, 2)
        segio.read_pages(100, 2)
        segio.read_pages(100, 2)
        assert cost.stats.read_calls == 2
        assert not segio.pool.is_resident(100)

    def test_always_pool_buffers_up_to_capacity(self):
        _config, cost, disk, segio = make_segio(pool_pages=12, max_buffered=12)
        fill(disk, 100, 8)
        segio.read_pages(100, 8)
        assert segio.pool.is_resident(104)
        before = cost.stats.io_calls
        segio.read_pages(100, 8)
        assert cost.stats.io_calls == before
