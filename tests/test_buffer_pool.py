"""Unit tests for the buffer manager (Section 3.2)."""

import pytest

from repro.buffer.pool import BufferPool, PoolStats
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import BufferPoolError, CrashError, IOFaultError
from repro.core.payload import SizedPayload
from repro.disk.disk import SimulatedDisk, contiguous_runs
from repro.disk.iomodel import CostModel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at, every
from repro.obs.tracer import Tracer


def make_pool(pool_pages=4, page_size=128):
    config = small_page_config(
        page_size=page_size, buffer_pool_pages=pool_pages
    )
    cost = CostModel(config)
    disk = SimulatedDisk(config, cost)
    return config, cost, disk, BufferPool(config, disk)


class TestPendingPages:
    """A page written as a pending image, as a shadowed index flush
    writes it: the pool charges its miss and builds it only when its
    bytes are handed out."""

    IMAGE = b"\x03" * 128

    @staticmethod
    def builder(calls, image=IMAGE):
        def build():
            calls.append(1)
            return image
        return build

    def write(self, pool, calls):
        """Write page 5 as a pending image, and forget the build the disk
        makes at the write when its checks are on."""
        pool.write_run(5, 1, [self.builder(calls)])
        assert calls == ([1] if pool.checks else [])
        calls.clear()

    def test_a_miss_leaves_it_unbuilt_until_its_bytes_are_read(self):
        _config, cost, disk, pool = make_pool()
        calls = []
        self.write(pool, calls)
        assert pool.access(5) is None
        assert calls == []
        assert (cost.stats.read_calls, pool.stats.misses) == (1, 1)
        assert list(pool.frames()) == [(5, 0, False)]
        assert pool.resident_image(5) == self.IMAGE
        assert calls == [1]
        assert pool.read_run(5, 1) == pool.page(5) == self.IMAGE
        assert disk.peek_pages(5, 1) == self.IMAGE
        assert calls == [1]
        assert (cost.stats.read_calls, pool.stats.hits) == (1, 2)

    def test_a_resident_copy_is_refreshed_unbuilt(self):
        _config, cost, disk, pool = make_pool()
        disk.poke_pages(5, b"old")
        pool.access(5)
        calls = []
        self.write(pool, calls)
        assert calls == []
        assert list(pool.frames()) == [(5, 0, False)]
        assert pool.resident_image(5) == self.IMAGE
        assert calls == [1]
        assert cost.stats.read_calls == 1

    def test_a_commit_refreshes_a_resident_copy_clean_and_unbuilt(self):
        """``commit_image``, the root and descriptor commit point: an
        uncharged deferral, and a resident copy, dirty or not, reads the
        pending image back when its bytes are handed out."""
        _config, cost, disk, pool = make_pool()
        pool.access(5, lambda: b"dirty")
        calls = []
        pool.commit_image(5, self.builder(calls))
        pool.commit_image(6, self.builder(calls))  # not resident
        assert calls == ([1, 1] if pool.checks else [])
        calls.clear()
        assert list(pool.frames()) == [(5, 0, False)]
        assert pool.resident_image(5) == self.IMAGE
        assert calls == [1]
        assert cost.stats.write_calls == 0
        assert disk.peek_pages(6, 1) == self.IMAGE


class TestFixUnfix:
    def test_miss_reads_from_disk(self):
        _config, cost, disk, pool = make_pool()
        disk.poke_pages(5, b"content")
        pool.fix(5)
        assert pool.page(5)[:7] == b"content"
        assert cost.stats.read_calls == 1
        pool.unfix(5)

    def test_hit_costs_nothing(self):
        _config, cost, _disk, pool = make_pool()
        pool.fix(5)
        pool.unfix(5)
        before = cost.stats.io_calls
        pool.fix(5)
        pool.unfix(5)
        assert cost.stats.io_calls == before
        assert pool.stats.hits == 1

    def test_pinned_pages_cannot_be_evicted(self):
        _config, _cost, _disk, pool = make_pool(pool_pages=2)
        pool.fix(1)
        pool.fix(2)
        with pytest.raises(BufferPoolError):
            pool.fix(3)

    def test_unfix_unknown_page_raises(self):
        _config, _cost, _disk, pool = make_pool()
        with pytest.raises(BufferPoolError):
            pool.unfix(42)

    def test_fix_new_does_not_read(self):
        _config, cost, _disk, pool = make_pool()
        pool.fix_new(7, b"fresh")
        assert list(pool.frames()) == [(7, 1, True)]
        assert pool.page(7) == b"fresh"
        assert cost.stats.read_calls == 0
        pool.unfix(7)

    def test_fix_new_resident_page_raises(self):
        _config, _cost, _disk, pool = make_pool()
        pool.fix_new(7)
        pool.unfix(7)
        with pytest.raises(BufferPoolError):
            pool.fix_new(7)


class TestEviction:
    def test_lru_order(self):
        _config, _cost, _disk, pool = make_pool(pool_pages=2)
        pool.fix(1)
        pool.unfix(1)
        pool.fix(2)
        pool.unfix(2)
        pool.fix(1)  # touch 1: page 2 becomes LRU
        pool.unfix(1)
        pool.fix(3)
        pool.unfix(3)
        assert pool.is_resident(1)
        assert not pool.is_resident(2)

    def test_clean_pages_evicted_before_dirty(self):
        # "we start first by freeing the least recently used clean pages
        #  followed by dirty pages" (Section 3.2).
        _config, _cost, _disk, pool = make_pool(pool_pages=2)
        pool.fix(1)
        pool.unfix(1, dirty=True)
        pool.fix(2)  # clean, more recently used than 1
        pool.unfix(2)
        pool.fix(3)
        pool.unfix(3)
        assert pool.is_resident(1), "dirty page should have been kept"
        assert not pool.is_resident(2)

    def test_dirty_eviction_writes_back(self):
        _config, cost, disk, pool = make_pool(pool_pages=1)
        pool.fix(1)
        pool.update_if_resident(1, b"dirty!", dirty=True)
        pool.unfix(1, dirty=True)
        pool.fix(2)
        pool.unfix(2)
        assert cost.stats.write_calls == 1
        assert disk.peek_pages(1, 1)[:6] == b"dirty!"

    @pytest.mark.parametrize("crash", [False, True])
    def test_a_run_short_of_clean_frames_takes_dirty_ones_in_lru_order(
        self, crash
    ):
        # One three-frame eviction with one clean candidate: the clean
        # frame goes first, then the dirty ones in recency order, each
        # written back first; a pinned frame is never a victim.  A
        # crashed second writeback leaves its page and the rest resident.
        config = small_page_config(page_size=128, buffer_pool_pages=5)
        tracer = Tracer()
        env = StorageEnvironment(config, tracer=tracer)
        pool = env.pool
        for page, dirty in ((1, True), (2, False), (3, True), (4, True),
                            (5, True)):
            pool.fix(page)
            pool.unfix(page, dirty=dirty)
        pool.fix(3)
        seen = len(tracer.records)
        if crash:
            with FaultInjector(env.disk, FaultPlan(crash_writes=at(2))):
                with pytest.raises(CrashError):
                    pool.read_run(20, 3)
        else:
            pool.read_run(20, 3)
        events = [
            (r["kind"], r["attrs"]["page"], r["attrs"].get("dirty"))
            for r in tracer.records[seen:] if r["kind"].startswith("pool.")
        ]
        expected = [
            ("pool.evict", 2, False),
            ("pool.writeback", 1, None), ("pool.evict", 1, True),
            ("pool.writeback", 4, None), ("pool.evict", 4, True),
        ]
        if crash:
            assert events == expected[:-1]
            assert list(pool.frames()) == [
                (4, 0, True), (5, 0, True), (3, 1, True),
            ]
            assert pool.stats.evictions == 2
            assert pool.stats.dirty_writebacks == 1
        else:
            assert events == expected
            assert [page for page, _, _ in pool.frames()] == [5, 3, 20, 21, 22]
            assert pool.stats.evictions == 3
            assert pool.stats.dirty_writebacks == 2


class TestReadRun:
    def test_single_io_for_missing_run(self):
        _config, cost, _disk, pool = make_pool(pool_pages=4)
        pool.read_run(10, 3)
        assert cost.stats.read_calls == 1
        assert cost.stats.pages_read == 3

    def test_partial_hits_split_ios(self):
        _config, cost, _disk, pool = make_pool(pool_pages=4)
        pool.fix(11)
        pool.unfix(11)
        before = cost.stats.read_calls
        pool.read_run(10, 3)  # 10 missing, 11 resident, 12 missing
        assert cost.stats.read_calls - before == 2

    def test_returns_all_content(self):
        _config, _cost, disk, pool = make_pool(pool_pages=4)
        disk.poke_pages(20, b"A" * 128 + b"B" * 128)
        data = pool.read_run(20, 2)
        assert data[:128] == b"A" * 128
        assert data[128:] == b"B" * 128

    def test_failed_mixed_read_releases_its_pins(self):
        # One page resident, three missing: the run pins page 100, then
        # the read of 101-103 fails for good.  The pin is released and
        # the counts, frames and recency order are what the attempt left.
        _config, _cost, disk, pool = make_pool(pool_pages=4)
        disk.write_pages(100, 4, b"x" * 4 * 128)
        pool.read_run(100, 1)
        plan = FaultPlan(read_faults=every(1), transient_failures=99)
        with FaultInjector(disk, plan):
            with pytest.raises(IOFaultError):
                pool.read_run(100, 4)
        assert list(pool.frames()) == [(100, 0, False)]
        assert pool.stats == PoolStats(hits=1, misses=4)
        assert pool.headroom == pool.capacity
        pool.assert_pin_balanced()

    def test_can_accommodate(self):
        # Section 3.2's availability test reads capacity and headroom: a
        # pin outside the run takes a frame from what the run may use.
        _config, _cost, _disk, pool = make_pool(pool_pages=3)
        assert pool.headroom == pool.capacity == 3
        pool.fix(1)
        assert pool.headroom == 2
        with pytest.raises(BufferPoolError):
            pool.read_run(10, 3)
        pool.read_run(10, 2)
        pool.unfix(1)
        pool.assert_pin_balanced()

    def test_mixed_read_evicts_around_its_own_pages_without_pins(self):
        # The run's resident page 10 is the clean LRU frame of a full
        # pool: the read of 11 evicts 20, the next frame outside the run,
        # and no frame is pinned while the disk reads.
        _config, _cost, disk, pool = make_pool(pool_pages=4)
        for page in (10, 20, 21, 22):
            pool.read_run(page, 1)
        pins_during_reads = []
        read_page_views = disk.read_page_views

        def hooked(start, n_pages):
            pins_during_reads.append([pin for _, pin, _ in pool.frames()])
            return read_page_views(start, n_pages)

        disk.read_page_views = hooked
        pool.read_run(10, 2)
        assert pins_during_reads == [[0, 0, 0]]
        assert [page for page, _, _ in pool.frames()] == [21, 22, 10, 11]
        assert pool.stats == PoolStats(hits=1, misses=5, evictions=1)
        pool.assert_pin_balanced()


class TestResidentImage:
    def test_copies_out_a_hit_without_touching_recency(self):
        _config, cost, disk, pool = make_pool(pool_pages=2)
        disk.poke_pages(1, b"one".ljust(128, b"\x00") + b"two")
        pool.read_run(1, 2)
        before = cost.stats.io_calls
        assert pool.resident_image(1) == b"one".ljust(128, b"\x00")
        assert (pool.stats.hits, pool.stats.misses) == (1, 2)
        assert cost.stats.io_calls == before
        # Page 1 is still the least recent: it, not page 2, makes room.
        pool.read_run(9, 1)
        assert not pool.is_resident(1) and pool.is_resident(2)

    def test_absent_page_is_none_and_not_a_miss(self):
        _config, cost, _disk, pool = make_pool()
        assert pool.resident_image(7) is None
        assert (pool.stats.hits, pool.stats.misses) == (0, 0)
        assert cost.stats.io_calls == 0 and pool.resident_count == 0

    def test_short_content_is_padded_to_the_page(self):
        _config, _cost, _disk, pool = make_pool()
        pool.fix_new(3, b"fresh")
        pool.unfix(3)
        assert pool.resident_image(3) == b"fresh".ljust(128, b"\x00")
        assert pool.resident_count == 1


class TestInvalidation:
    def test_invalidate_discards_dirty_content(self):
        _config, cost, _disk, pool = make_pool()
        pool.fix(1)
        pool.unfix(1, dirty=True)
        pool.invalidate(1)
        assert not pool.is_resident(1)
        assert cost.stats.write_calls == 0

    def test_invalidate_pinned_raises(self):
        _config, _cost, _disk, pool = make_pool()
        pool.fix(1)
        with pytest.raises(BufferPoolError):
            pool.invalidate(1)

    def test_invalidate_absent_is_noop(self):
        _config, _cost, _disk, pool = make_pool()
        pool.invalidate(999)

    def test_invalidate_run_is_all_or_nothing(self):
        """A pinned page anywhere in the run leaves every frame resident."""
        for n_pages in (3, 40):     # probed by the run, and by the pool
            _config, _cost, _disk, pool = make_pool(pool_pages=6)
            for page in (3, 2, 1):
                pool.fix(page)
            pool.unfix(1)
            # Pages are visited in ascending order whichever is probed:
            # the lowest pinned page is the one named.
            with pytest.raises(BufferPoolError, match="pinned page 2"):
                pool.invalidate_run(1, n_pages)
            assert [pool.is_resident(page) for page in (1, 2, 3)] == [True] * 3
            pool.unfix(2)
            pool.unfix(3)
            pool.invalidate_run(1, n_pages)
            assert not any(pool.is_resident(page) for page in (1, 2, 3))


def _occupied_pool():
    """A pool holding pages 10, 13, 12, 17 (in that recency order) in
    every mix of clean/dirty and plain/provider-backed."""
    config, _cost, disk, pool = make_pool(pool_pages=6, page_size=64)
    for page in (10, 12):
        disk.poke_pages(page, bytes([page]) * 64)
    disk.defer_image(13, lambda: b"p" * 64)  # read back as its builder
    for page in (10, 13, 12):
        pool.fix(page)
        pool.unfix(page, dirty=page == 12)
    pool.access(17, lambda: b"q" * 64)
    return config, disk, pool


def _frame_states(pool):
    """Every page in recency order, with all that a caller can observe,
    and whether the pool holds its image or a builder of it."""
    return [
        (page_id, bytes(pool.page(page_id)), dirty,
         not callable(pool._frames[page_id]), pins)
        for page_id, pins, dirty in pool.frames()
    ]


#: Run lengths below, equal to and above the four occupied frames.
@pytest.mark.parametrize("n_pages", [1, 3, 4, 5, 9, 1000])
@pytest.mark.parametrize("start", [9, 11, 13])
class TestRunsAgainstThePerPageLoop:
    """The run operations probe the run or the pool, whichever is
    smaller; either way they must leave what a loop over the pages of
    the run leaves."""

    def test_invalidate_run(self, start, n_pages):
        _config, _disk, pool = _occupied_pool()
        _config, _disk, reference = _occupied_pool()
        pool.invalidate_run(start, n_pages)
        for page in range(start, start + n_pages):
            reference.invalidate(page)
        assert _frame_states(pool) == _frame_states(reference)

    @pytest.mark.parametrize("record", [True, False])
    def test_write_run(self, start, n_pages, record):
        config, disk, pool = _occupied_pool()
        _config, reference_disk, reference = _occupied_pool()
        size = config.page_size
        data = bytes(range(256)) * (-(-n_pages * size // 256))
        data = data[: n_pages * size - 7]       # a short last page
        pool.write_run(start, n_pages, data, record=record)
        reference_disk.write_pages(start, n_pages, data, record=record)
        for i in range(n_pages):
            image = data[i * size : (i + 1) * size].ljust(size, b"\x00")
            reference.update_if_resident(start + i, image)
        assert _frame_states(pool) == _frame_states(reference)
        assert disk.image() == reference_disk.image()


class TestAccessAgainstFixUnfix:
    """``access`` is one charged touch with no pin held: it must leave
    what ``fix`` then ``unfix`` (with the provider put in the frame and a
    dirty unfix when given one) leave, step by step."""

    @staticmethod
    def _by_pair(pool, page, provider):
        pool.fix(page)
        if provider is not None:
            pool._frames[page] = provider
        pool.unfix(page, dirty=provider is not None)

    def test_same_counts_order_flags_and_image(self):
        # Serialized only at writeback: its first byte is the step number.
        directory = bytearray(64)

        def provider():
            return bytes(directory)

        steps = [
            (1, None), (2, None), (3, provider),  # misses into free frames
            (1, None),                            # a hit
            (4, None),                            # miss evicts clean 2
            (1, provider),                        # a hit left dirty
            (5, None),                            # miss evicts clean 4
            (5, provider),
            (6, None),                            # all dirty: 3 written back
            (3, None),                            # miss evicts clean 6
        ]
        sides = []
        for _ in range(2):
            _config, cost, disk, pool = make_pool(pool_pages=3, page_size=64)
            for page in range(1, 7):
                disk.poke_pages(page, bytes([page]) * 64)
            sides.append((cost, disk, pool))
        (cost, disk, pool), (ref_cost, ref_disk, reference) = sides
        for step, (page, touch_provider) in enumerate(steps):
            directory[0] = step
            assert pool.access(page, touch_provider) is None
            self._by_pair(reference, page, touch_provider)
            assert pool.stats == reference.stats
            assert list(pool.frames()) == list(reference.frames())
            assert _frame_states(pool) == _frame_states(reference)
            assert disk.image() == ref_disk.image()
            assert cost.stats == ref_cost.stats
        assert pool.stats.evictions == 4
        assert pool.stats.dirty_writebacks == 1
        assert bytes(pool.page(3)) == bytes([8]) + bytes(63)

    def test_access_new_matches_the_fix_new_bracket(self):
        # A new page into free frames, then into a full pool whose only
        # victims are dirty (one written back), then a resident page.
        sides = []
        for _ in range(2):
            _config, cost, disk, pool = make_pool(pool_pages=3, page_size=64)
            for page in (1, 2, 3):
                pool.access(page, lambda page=page: bytes([page]) * 64)
            sides.append((cost, disk, pool))
        (cost, disk, pool), (ref_cost, ref_disk, reference) = sides
        for page in (10, 11):
            provider = lambda page=page: bytes([page]) * 64
            pool.access_new(page, provider)
            reference.fix_new(page)
            reference._frames[page] = provider
            reference.unfix(page, dirty=True)
            assert pool.stats == reference.stats
            assert _frame_states(pool) == _frame_states(reference)
            assert disk.image() == ref_disk.image()
            assert cost.stats == ref_cost.stats
        assert pool.stats.dirty_writebacks == 2
        with pytest.raises(BufferPoolError, match="already resident"):
            pool.access_new(11, provider)
        assert _frame_states(pool) == _frame_states(reference)


class TestDirtyRecordFlag:
    """A dirty page is written back recorded or phantom by the flag fixed
    when it first became dirty: ``fix_new``'s ``record``, else True."""

    def test_an_unrecorded_new_page_writes_back_phantom(self):
        _config, _cost, disk, pool = make_pool(pool_pages=1)
        pool.fix_new(7, b"fresh", record=False)
        pool.unfix(7, dirty=True)
        pool.read_run(8, 1)                     # evicts 7, dirty
        assert pool.stats.dirty_writebacks == 1
        assert disk.image() == {7: None}

    def test_a_page_dirtied_by_a_provider_writes_back_recorded(self):
        _config, _cost, disk, pool = make_pool(pool_pages=1)
        pool.access(7, lambda: b"directory")
        pool.read_run(8, 1)                     # evicts 7, dirty
        assert pool.stats.dirty_writebacks == 1
        assert disk.image() == {7: b"directory".ljust(128, b"\x00")}

    def test_a_phantom_read_page_dirtied_later_writes_back_recorded(self):
        # The read's record=False is not kept with the clean page: it is
        # dirtied as any page is, and its writeback records its bytes.
        _config, _cost, disk, pool = make_pool(pool_pages=1)
        disk.write_pages(7, 1, SizedPayload(128), record=False)
        pool.read_run(7, 1, record=False)
        pool.fix(7)
        pool.unfix(7, dirty=True)
        pool.flush_all()
        assert pool.stats.dirty_writebacks == 1
        assert disk.image() == {7: bytes(128)}


class TestFlush:
    def test_flush_all_groups_contiguous_runs(self):
        _config, cost, _disk, pool = make_pool(pool_pages=6)
        for page in (1, 2, 3, 7):
            pool.fix(page)
            pool.unfix(page, dirty=True)
        before = cost.stats.write_calls
        pool.flush_all()
        assert cost.stats.write_calls - before == 2  # [1,2,3] and [7]

    def test_provider_supplies_content_at_writeback(self):
        _config, _cost, disk, pool = make_pool()
        pool.access(1, lambda: b"lazy" + bytes(124))
        pool.flush_page(1)
        assert disk.peek_pages(1, 1)[:4] == b"lazy"


def test_contiguous_runs_helper():
    assert contiguous_runs([]) == []
    assert contiguous_runs([5]) == [(5, 1)]
    assert contiguous_runs([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 1), (9, 2)]
