"""Every alignment of a segment read, traced and untraced, against a model.

``SegmentIO`` enters one body per operation, directly when no tracer is
installed and inside a span otherwise.  These tests run each case on two
identical stacks, one of them traced, and compare both with a model that
goes through the request one page at a time: the bytes returned, the
ledger, the pool's counters and the order (and pin state) of its frames
must all agree.  The model knows the policy of Section 3.2 — a short run
is buffered whole when the pool can make room, a long one bypasses it,
and the boundary blocks of a byte range that does not match block
boundaries go through the pool (Figure 4) — and nothing of the code.
Every case also runs on a phantom stack, whose segment pages were
written without their bytes: it must charge the same, and a read must
return the length alone, as a ``SizedPayload``.
"""

import dataclasses

import pytest

from repro.buffer.pool import BufferPool
from repro.core.config import small_page_config
from repro.core.errors import ContractViolationError
from repro.core.payload import SizedPayload
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel
from repro.obs.tracer import Tracer
from repro.segio import SegmentIO

PAGE = 128
CAPACITY = 6
MAX_BUFFERED = 4
#: The segment under test and the page range of it that is read: one
#: page in, so that a run has a neighbour on either side.
SEGMENT = 100
SEGMENT_PAGES = 8
RUN_FIRST = 1
#: Unrelated pages: two that are resident before the request (eviction
#: victims, and witnesses of the recency order) and fillers to pin.
BYSTANDERS = (50, 51)
FILLERS = range(60, 60 + CAPACITY)

#: Section 3.2's policy and the two extremes it rejects, as the largest
#: run the pool takes whole (``max_buffered_segment_pages``).
POLICIES = {
    "hybrid": MAX_BUFFERED,
    "bypass_pool": 0,
    "always_pool": CAPACITY,
}


def page_bytes(page: int) -> bytes:
    return bytes((page * 31 + i) % 251 for i in range(PAGE))


class Stack:
    """Disk, pool and segment I/O, traced or not, in a prepared state."""

    def __init__(self, traced: bool, policy: str, resident: list[int],
                 fully_pinned: bool, recorded: bool = True) -> None:
        config = small_page_config(
            page_size=PAGE,
            buffer_pool_pages=CAPACITY,
            max_buffered_segment_pages=POLICIES[policy],
        )
        self.cost = CostModel(config)
        self.disk = SimulatedDisk(config, self.cost)
        self.pool = BufferPool(config, self.disk)
        self.tracer = Tracer() if traced else None
        if self.tracer is not None:
            self.disk.tracer = self.tracer
            self.tracer.bind(config, self.cost.stats, self.pool.stats)
        self.segio = SegmentIO(config, self.pool, record_leaf_data=recorded)
        segment = range(SEGMENT, SEGMENT + SEGMENT_PAGES)
        if not recorded:
            self.disk.write_pages(SEGMENT, SEGMENT_PAGES,
                                  SizedPayload(SEGMENT_PAGES * PAGE),
                                  record=False)
        for page in [*(segment if recorded else ()), *BYSTANDERS, *FILLERS]:
            self.disk.poke_pages(page, page_bytes(page))
        for page in [*BYSTANDERS, *resident]:
            self.pool.read_run(page, 1)
        if fully_pinned:
            cached = [page for page, _, _ in self.pool.frames()]
            for page in [*cached, *FILLERS][:CAPACITY]:
                self.pool.fix(page)
            assert self.pool.headroom == 0

    def state(self) -> dict[str, object]:
        return {
            "io": dataclasses.replace(self.cost.stats),
            "pool": dataclasses.replace(self.pool.stats),
            "frames": [(page, pins) for page, pins, _ in self.pool.frames()],
        }

    def spans(self, since: int) -> list[dict[str, object]]:
        assert self.tracer is not None
        return [r for r in self.tracer.records[since:] if r["t"] == "span"]


class PageByPage:
    """What a request does to ledger, counters and frames, page by page.

    Starts from a prepared stack's state.  Every frame is clean, so the
    eviction victim is simply the least recent unpinned frame.
    """

    def __init__(self, stack: Stack, policy: str, recorded: bool) -> None:
        self.policy = policy
        self.recorded = recorded
        frames = list(stack.pool.frames())          # least recent first
        self.frames = [page for page, _, _ in frames]
        self.pinned = {page for page, pins, _ in frames if pins}
        self.io = dataclasses.replace(stack.cost.stats)
        self.io_before = dataclasses.replace(stack.cost.stats)
        self.counters = dataclasses.replace(stack.pool.stats)
        self.content = {
            page: page_bytes(page) if recorded else bytes(PAGE)
            for page in range(SEGMENT, SEGMENT + SEGMENT_PAGES)
        }

    # -- the policy ------------------------------------------------------
    def headroom(self) -> int:
        return CAPACITY - len(self.pinned)

    def buffers(self, n_pages: int) -> bool:
        return n_pages <= POLICIES[self.policy] and n_pages <= self.headroom()

    # -- the parts -------------------------------------------------------
    def one_disk_read(self, pages: list[int]) -> None:
        if pages:
            self.io.read_calls += 1
            self.io.pages_read += len(pages)

    def through_the_pool(self, pages: list[int]) -> None:
        """A buffered run: resident pages are hits, each stretch of
        missing ones is one disk read for which the least recent frames
        that are neither pinned nor part of this run make room; then the
        whole run becomes the most recent, in page order."""
        keep = {page for page in pages if page in self.frames}

        def bring_in(stretch: list[int]) -> None:
            for _ in range(len(self.frames) + len(stretch) - CAPACITY):
                victim = next(
                    page for page in self.frames
                    if page not in self.pinned and page not in keep
                )
                self.frames.remove(victim)
                self.counters.evictions += 1
            self.one_disk_read(stretch)
            self.frames += stretch
            keep.update(stretch)

        stretch: list[int] = []
        for page in pages:
            if page in keep:
                self.counters.hits += 1
                bring_in(stretch)
                stretch = []
            else:
                self.counters.misses += 1
                stretch.append(page)
        bring_in(stretch)
        for page in pages:
            self.frames.remove(page)
            self.frames.append(page)

    def boundary_block(self, page: int) -> None:
        """Copied out of its frame (recency untouched), or brought into
        the pool, or — no frame to be had — read around it."""
        if page in self.frames:
            self.counters.hits += 1
        elif self.buffers(1):  # the rule of a one-page run
            self.through_the_pool([page])
        else:
            self.counters.misses += 1
            self.one_disk_read([page])

    # -- the requests (SegmentIO's signatures) ---------------------------
    def read_boundary_unaligned(self, segment_page: int, byte_off: int,
                                nbytes: int) -> bytes:
        assert segment_page == SEGMENT
        end = byte_off + nbytes
        pages = list(range(SEGMENT + byte_off // PAGE,
                           SEGMENT + (end - 1) // PAGE + 1))
        if self.buffers(len(pages)):
            self.through_the_pool(pages)
        else:
            interior: list[int] = []
            for page in pages:
                cut = (page == pages[0] and byte_off % PAGE) or (
                    page == pages[-1] and end % PAGE
                )
                if cut:
                    self.one_disk_read(interior)
                    interior = []
                    self.boundary_block(page)
                else:
                    interior.append(page)
            self.one_disk_read(interior)
        segment = b"".join(
            self.content[page]
            for page in range(SEGMENT, SEGMENT + SEGMENT_PAGES)
        )
        return segment[byte_off:end]

    def read_pages(self, start_page: int, n_pages: int) -> bytes:
        pages = list(range(start_page, start_page + n_pages))
        if self.buffers(n_pages):
            self.through_the_pool(pages)
        else:
            direct = []
            for page in pages:
                if page in (pages[0], pages[-1]) and page in self.frames:
                    self.counters.hits += 1
                else:
                    direct.append(page)
            self.one_disk_read(direct)
        return b"".join(self.content[page] for page in pages)

    def write_pages(self, start_page: int, data: bytes) -> None:
        n_pages = -(-len(data) // PAGE)
        self.io.write_calls += 1
        self.io.pages_written += n_pages
        padded = (data if self.recorded else bytes(len(data))).ljust(
            n_pages * PAGE, b"\x00"
        )
        for i in range(n_pages):
            self.content[start_page + i] = padded[i * PAGE:(i + 1) * PAGE]

    def cost(self) -> tuple[int, int, int, int]:
        """The request's own calls and pages, read then written."""
        io, before = self.io, self.io_before
        return (
            io.read_calls - before.read_calls,
            io.pages_read - before.pages_read,
            io.write_calls - before.write_calls,
            io.pages_written - before.pages_written,
        )

    def state(self) -> dict[str, object]:
        return {
            "io": self.io,
            "pool": self.counters,
            "frames": [(page, int(page in self.pinned)) for page in self.frames],
        }


def run_both(policy, resident, fully_pinned, request):
    """Run ``request(segio or model)`` on an untraced stack, a traced one
    and the model, once recording leaf bytes and once phantom; returns,
    per mode (``recorded`` True or False), the traced stack, the one span
    the request must have recorded there, and the model.  A phantom read
    returns its length alone."""
    legs = {}
    for recorded in (True, False):
        outcomes = []
        for traced in (False, True):
            stack = Stack(traced, policy, resident, fully_pinned, recorded)
            model = PageByPage(stack, policy, recorded)
            since = len(stack.tracer.records) if traced else 0
            got = request(stack.segio)
            expected = request(model)
            assert got == expected
            if not recorded and expected is not None:
                assert isinstance(got, SizedPayload)
            assert stack.state() == model.state()
            outcomes.append((got, stack.state()))
        assert outcomes[0] == outcomes[1]
        (span,) = stack.spans(since)
        assert (
            span["read_calls"], span["pages_read"],
            span["write_calls"], span["pages_written"],
        ) == model.cost()
        legs[recorded] = stack, span, model
    return legs


ALIGNMENTS = {
    "neither": (0, 0), "left": (10, 0), "right": (0, 10), "both": (10, 10),
}


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("fully_pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("resident", [False, True], ids=["absent", "resident"])
@pytest.mark.parametrize("n_pages", [1, 2, 5])
@pytest.mark.parametrize("alignment", list(ALIGNMENTS))
def test_three_step_read(alignment, n_pages, resident, fully_pinned, policy):
    cut_left, cut_right = ALIGNMENTS[alignment]
    byte_off = RUN_FIRST * PAGE + cut_left
    nbytes = n_pages * PAGE - cut_left - cut_right
    first, last = SEGMENT + RUN_FIRST, SEGMENT + RUN_FIRST + n_pages - 1
    legs = run_both(
        policy,
        sorted({first, last}) if resident else [],
        fully_pinned,
        lambda target: target.read_boundary_unaligned(
            SEGMENT, byte_off, nbytes
        ),
    )
    for _stack, span, _model in legs.values():
        assert span["kind"] == "segio.read_unaligned"
        assert list(span["attrs"].items()) == [
            ("start", first), ("pages_n", n_pages),
            ("buffered", span_buffered(policy, n_pages, fully_pinned)),
        ]
        # Never more than the three steps of Figure 4.
        assert span["read_calls"] <= 3
        assert span["pages_read"] <= n_pages


def span_buffered(policy: str, n_pages: int, fully_pinned: bool) -> bool:
    """Whether the pool takes the whole run, as the span must report it."""
    return not fully_pinned and n_pages <= POLICIES[policy]


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("fully_pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize(
    "resident", ["none", "first", "last", "both"],
)
@pytest.mark.parametrize("n_pages", [1, 2, 5])
def test_read_pages(n_pages, resident, fully_pinned, policy):
    """The buffered run and the large run's bypass, which takes boundary
    pages that happen to be resident from the pool."""
    first, last = SEGMENT + RUN_FIRST, SEGMENT + RUN_FIRST + n_pages - 1
    cached = {
        "none": [], "first": [first], "last": [last],
        "both": sorted({first, last}),
    }[resident]
    legs = run_both(
        policy, cached, fully_pinned,
        lambda target: target.read_pages(first, n_pages),
    )
    buffered = span_buffered(policy, n_pages, fully_pinned)
    for _stack, span, _model in legs.values():
        assert span["kind"] == "segio.read"
        assert list(span["attrs"].items()) == [
            ("start", first), ("pages_n", n_pages), ("buffered", buffered),
        ]
        if not buffered:
            # One direct read of whatever the pool did not already hold.
            assert span["read_calls"] == (n_pages > len(cached))
            assert span["pages_read"] == n_pages - len(cached)


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("resident", [False, True], ids=["absent", "resident"])
@pytest.mark.parametrize("nbytes", [PAGE, 2 * PAGE + 5, 5 * PAGE - 1])
def test_write_pages(nbytes, resident, policy):
    """One physical write, zero-filled to the page; resident copies are
    refreshed where they stand, clean, and nothing else moves."""
    first = SEGMENT + RUN_FIRST
    n_pages = -(-nbytes // PAGE)
    data = bytes((7 * i) % 253 for i in range(nbytes))
    legs = run_both(
        policy,
        sorted({first, first + n_pages - 1}) if resident else [],
        False,
        lambda target: target.write_pages(first, data),
    )
    for recorded, (stack, span, model) in legs.items():
        assert span["kind"] == "segio.write"
        assert list(span["attrs"].items()) == [
            ("start", first), ("pages_n", n_pages),
        ]
        assert (span["write_calls"], span["pages_written"]) == (1, n_pages)
        # Disk and (where resident) pool both hold the new image: the
        # data when recorded, zeros when not.
        image = b"".join(model.content[first + i] for i in range(n_pages))
        assert image == (data if recorded else bytes(nbytes)).ljust(
            n_pages * PAGE, b"\x00"
        )
        assert stack.disk.peek_pages(first, n_pages) == image
        assert stack.segio.read_pages(first, n_pages) == model.read_pages(
            first, n_pages
        )
        if resident:
            dirty = {page: flag for page, _, flag in stack.pool.frames()}
            assert stack.pool.page(first) == model.content[first]
            assert not dirty[first]


def _unaligned(byte_off, nbytes):
    return lambda segio: segio.read_boundary_unaligned(
        SEGMENT, byte_off, nbytes
    )


#: A recorded page planted under the phantom segment, and a length-only
#: read that charges it: (policy, planted page, read, bytes it returns).
PLANTED = {
    "head": ("bypass_pool", 1, _unaligned(PAGE + 10, 4 * PAGE), 4 * PAGE),
    "interior": ("bypass_pool", 3, _unaligned(PAGE + 10, 4 * PAGE), 4 * PAGE),
    "tail": ("bypass_pool", 5, _unaligned(PAGE + 10, 4 * PAGE), 4 * PAGE),
    "buffered": ("hybrid", 2, _unaligned(PAGE + 10, PAGE), PAGE),
    "bypassed-run": (
        "bypass_pool", 2, lambda segio: segio.read_pages(SEGMENT + 1, 3),
        3 * PAGE,
    ),
}


@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"],
                         indirect=True)
@pytest.mark.parametrize("case", list(PLANTED))
def test_length_only_read_checks_its_premise(case, checked):
    """A phantom read returns a length because every page it charges
    reads as zeros; under ``REPRO_CHECKS=1`` a recorded page among them
    is a contract violation, not a silently dropped byte."""
    policy, planted, read, nbytes = PLANTED[case]
    stack = Stack(False, policy, [], False, recorded=False)
    stack.disk.poke_pages(SEGMENT + planted, page_bytes(SEGMENT + planted))
    if checked:
        with pytest.raises(ContractViolationError, match="recorded bytes"):
            read(stack.segio)
    else:
        result = read(stack.segio)
        assert isinstance(result, SizedPayload) and len(result) == nbytes


#: A fresh run no stack touches before a copy writes it.
SINK = 200


def _copy(byte_off, nbytes):
    """A staged copy of one source piece, one chunk, into a fresh sink."""
    return lambda segio: segio.copy_staged(
        [(SEGMENT, byte_off, nbytes)], 4 * PAGE, [(SINK, nbytes)]
    )


#: A recorded page planted under a phantom copy's source piece: (policy,
#: planted page, copy).  The 3-step read covers pages 1-5 of the segment
#: (head 1, interior 2-4, tail 5); the buffered reads cover pages 1-2
#: (the pool's length-only run) and page 2 alone.
PLANTED_UNDER_COPY = {
    "head": ("bypass_pool", 1, _copy(PAGE + 10, 4 * PAGE)),
    "interior": ("bypass_pool", 3, _copy(PAGE + 10, 4 * PAGE)),
    "tail": ("bypass_pool", 5, _copy(PAGE + 10, 4 * PAGE)),
    "buffered-run": ("hybrid", 2, _copy(PAGE + 10, PAGE)),
    "buffered-page": ("hybrid", 2, _copy(2 * PAGE + 10, 20)),
}


@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"],
                         indirect=True)
@pytest.mark.parametrize("case", list(PLANTED_UNDER_COPY))
def test_phantom_copy_checks_its_premise(case, checked):
    """A phantom staged copy assembles nothing from its reads; under
    ``REPRO_CHECKS=1`` a recorded page among the runs a read charged is a
    contract violation, and without checks the copy charges what it
    charges over a clean store."""
    policy, planted, copy = PLANTED_UNDER_COPY[case]
    stack = Stack(False, policy, [], False, recorded=False)
    stack.disk.poke_pages(SEGMENT + planted, page_bytes(SEGMENT + planted))
    if checked:
        with pytest.raises(ContractViolationError, match="recorded bytes"):
            copy(stack.segio)
    else:
        clean = Stack(False, policy, [], False, recorded=False)
        copy(clean.segio)
        copy(stack.segio)
        assert stack.state() == clean.state()
