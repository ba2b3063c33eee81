"""Hypothesis stateful machines for the substrate components.

These drive the simulated disk, the buffer pool and the buddy allocator
through arbitrary interleavings of their operations, checking them
against simple reference models after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.buddy.allocator import BuddyAllocator
from repro.buffer.pool import BufferPool
from repro.core.config import small_page_config
from repro.core.errors import BufferPoolError, CrashError, OutOfSpaceError
from repro.core.payload import SizedPayload
from repro.disk.disk import _CHUNK_PAGES, SimulatedDisk
from repro.disk.iomodel import CostModel
from tests.test_disk import (ModelDisk, _builders, _Tear,
                             assert_disk_matches, discard)

CONFIG = small_page_config(page_size=128, buffer_pool_pages=4)


class SimulatedDiskMachine(RuleBasedStateMachine):
    """Run-granular page state behaves like a page-granular dict."""

    #: Every run lies in a window straddling one chunk boundary.
    LOW, HIGH = _CHUNK_PAGES - 8, _CHUNK_PAGES + 8

    def __init__(self):
        super().__init__()
        self.disk = SimulatedDisk(CONFIG, CostModel(CONFIG))
        self.model = ModelDisk(CONFIG.page_size)

    starts = st.integers(min_value=LOW, max_value=HIGH - 1)
    counts = st.integers(min_value=1, max_value=12)
    page_images = st.binary(
        min_size=CONFIG.page_size, max_size=CONFIG.page_size
    )
    #: Bytes, a sized payload, or a list of one builder per page.
    payloads = st.one_of(
        st.binary(max_size=3 * CONFIG.page_size),
        st.integers(min_value=0, max_value=3 * CONFIG.page_size).map(
            SizedPayload
        ),
        st.lists(page_images, min_size=1, max_size=12).map(_builders),
    )

    def _clip(self, start, count, data):
        """The run's page count and data, inside the window: a builder
        list fixes the count, so it is cut to the window instead."""
        if isinstance(data, list):
            data = data[: self.HIGH - start]
            return len(data), data
        needed = -(-len(data) // CONFIG.page_size)
        return max(needed, min(count, self.HIGH - start)), data

    @rule(start=starts, count=counts, data=payloads, record=st.booleans())
    def write(self, start, count, data, record):
        count, data = self._clip(start, count, data)
        self.disk.write_pages(start, count, data, record=record)
        self.model.write(start, count, data, record)

    @rule(start=starts, count=counts, data=payloads, record=st.booleans(),
          keep=st.integers(min_value=0, max_value=12))
    def torn_write(self, start, count, data, record, keep):
        count, data = self._clip(start, count, data)
        self.disk.install_fault_site(_Tear(keep))
        try:
            self.disk.write_pages(start, count, data, record=record)
        except CrashError:
            self.model.write(start, count, data, record, limit=keep)
        else:
            raise AssertionError("the write was not torn")
        finally:
            self.disk.clear_fault_site()

    @rule(start=starts, data=st.binary(min_size=1, max_size=200))
    def poke(self, start, data):
        self.disk.poke_pages(start, data)
        self.model.write(start, -(-len(data) // CONFIG.page_size), data, True)

    @rule(start=starts, image=page_images)
    def defer(self, start, image):
        self.disk.defer_image(start, lambda: image)
        self.model.write(start, 1, image, True)

    @rule(start=starts, count=counts, retain=st.booleans())
    def discard(self, start, count, retain):
        discard(self.disk, start, count, retain)
        if not retain:
            self.model.discard(start, count)

    @rule(index=st.integers(min_value=0, max_value=10**6),
          bit=st.integers(min_value=0, max_value=10**6))
    @precondition(lambda self: self.model.recorded())
    def corrupt(self, index, bit):
        recorded = self.model.recorded()
        page = recorded[index % len(recorded)]
        self.disk.corrupt_page(page, bit)
        self.model.flip(page, bit)

    @invariant()
    def matches_the_page_model(self):
        window = self.HIGH + 4 - self.LOW
        assert_disk_matches(
            self.disk, self.model,
            [(self.LOW, window), (self.LOW + 5, 1), (_CHUNK_PAGES - 1, 2)],
        )


class BufferPoolMachine(RuleBasedStateMachine):
    """The pool must always return current page content and respect pins."""

    def __init__(self):
        super().__init__()
        self.cost = CostModel(CONFIG)
        self.disk = SimulatedDisk(CONFIG, self.cost)
        self.pool = BufferPool(CONFIG, self.disk)
        #: Reference content per page id.
        self.content: dict[int, bytes] = {}
        #: Outstanding pins per page id.
        self.pins: dict[int, int] = {}
        for page in range(8):
            data = bytes([page]) * CONFIG.page_size
            self.disk.poke_pages(page, data)
            self.content[page] = data

    pages = st.integers(min_value=0, max_value=7)

    @rule(page=pages)
    def fix_page(self, page):
        if self.pool.headroom == 0 and not self.pool.is_resident(
            page
        ):
            try:
                self.pool.fix(page)
            except BufferPoolError:
                return  # all frames pinned: correct refusal
            raise AssertionError("fix should have failed with all pins")
        self.pool.fix(page)
        assert self.pool.page(page) == self.content[page]
        self.pins[page] = self.pins.get(page, 0) + 1

    @rule(page=pages)
    def unfix_page(self, page):
        if self.pins.get(page, 0) > 0:
            self.pool.unfix(page)
            self.pins[page] -= 1

    @rule(page=pages, salt=st.integers(min_value=0, max_value=255))
    def write_page(self, page, salt):
        """Model a write-through update (disk + resident copy)."""
        data = bytes([salt]) * CONFIG.page_size
        self.disk.write_pages(page, 1, data)
        self.pool.update_if_resident(page, data)
        self.content[page] = data

    @rule(start=st.integers(min_value=0, max_value=5),
          count=st.integers(min_value=1, max_value=3))
    def read_run(self, start, count):
        if count > self.pool.headroom:
            return
        data = self.pool.read_run(start, count)
        expected = b"".join(
            self.content[start + i] for i in range(count)
        )
        assert data == expected

    @invariant()
    def pool_never_overflows(self):
        assert self.pool.resident_count <= self.pool.capacity

    @invariant()
    def resident_content_is_current(self):
        for page_id, _, dirty in self.pool.frames():
            if not dirty:
                assert self.pool.page(page_id) == self.content[page_id]


class BuddyAllocatorMachine(RuleBasedStateMachine):
    """Allocations never overlap; frees restore capacity exactly."""

    def __init__(self):
        super().__init__()
        cost = CostModel(CONFIG)
        disk = SimulatedDisk(CONFIG, cost)
        pool = BufferPool(CONFIG, disk)
        self.allocator = BuddyAllocator(CONFIG, pool, 0, name="m")
        self.live: list[tuple[int, int]] = []

    @rule(pages=st.integers(min_value=1, max_value=40))
    def allocate(self, pages):
        if pages > CONFIG.max_segment_pages:
            return
        try:
            start = self.allocator.allocate(pages)
        except OutOfSpaceError:
            return
        new = set(range(start, start + pages))
        for other_start, other_pages in self.live:
            assert not new & set(range(other_start, other_start + other_pages))
        self.live.append((start, pages))

    @rule(index=st.integers(min_value=0, max_value=10**6))
    @precondition(lambda self: self.live)
    def free_whole(self, index):
        start, pages = self.live.pop(index % len(self.live))
        self.allocator.free(start, pages)

    @rule(index=st.integers(min_value=0, max_value=10**6),
          keep=st.integers(min_value=1, max_value=39))
    @precondition(lambda self: any(p > 1 for _s, p in self.live))
    def free_tail(self, index, keep):
        candidates = [i for i, (_s, p) in enumerate(self.live) if p > 1]
        slot = candidates[index % len(candidates)]
        start, pages = self.live[slot]
        kept = min(keep, pages - 1)
        self.allocator.free(start + kept, pages - kept)
        self.live[slot] = (start, kept)

    @invariant()
    def accounting_matches(self):
        assert self.allocator.allocated_pages == sum(
            pages for _start, pages in self.live
        )
        self.allocator.check_invariants()


TestSimulatedDiskMachine = SimulatedDiskMachine.TestCase
TestSimulatedDiskMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestBufferPoolMachine = BufferPoolMachine.TestCase
TestBufferPoolMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestBuddyAllocatorMachine = BuddyAllocatorMachine.TestCase
TestBuddyAllocatorMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
