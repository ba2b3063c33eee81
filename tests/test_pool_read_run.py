"""``BufferPool.read_run``'s one pass against the body it replaced.

The reference below is the older three-branch ``read_run`` — a resident
list, a ``count``, then the all-resident, all-missing or mixed branch with
a ``_make_room`` frame per missing sub-run, and pins on the run's pages
while room is made — kept here as the tests' yardstick.  It is wrapped in
the up-front refusal (run alone it fails half way, see
:class:`TestARefusedRunChangesNothing`) and in the phantom-length rule: a
``record=False`` run of two or more pages returns
``SizedPayload(n_pages * page_size)``, where the three branches join what
the pages hold (``bytes`` when a run mixes never-written and phantom
pages).  Everything a caller, the disk or a trace could see must be the
same call for call: the returned payload, hits and misses, which frames
are evicted and in what order, the recency order left behind, pins, dirty
writebacks, disk calls and tracer events.
"""

import dataclasses
import functools
import random

import pytest

from repro.buffer.pool import BufferPool, _page_image
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import BufferPoolError, ContractViolationError
from repro.core.payload import Payload, SizedPayload, payload_concat
from repro.disk.disk import contiguous_runs
from repro.obs.tracer import Tracer

PAGE = 128
#: First page of the small range every step draws from.
BASE = 100
SPAN = 16


# ----------------------------------------------------------------------
# The reference: a resident list, a count, three branches
# ----------------------------------------------------------------------
def _three_branch_read_run(
    self: BufferPool, start: int, n_pages: int, record: bool = True
) -> Payload:
    pages = range(start, start + n_pages)
    frames = self._frames
    page_size = self.config.page_size
    stats = self.stats
    get = frames.get
    pins = self._pins
    resident = [get(page) for page in pages]
    n_missing = resident.count(None)
    if n_missing == 0:
        stats.hits += n_pages
        chunks = []
        for page in pages:
            frames.move_to_end(page)
            chunks.append(_page_image(self.page(page), page_size))
        return payload_concat(chunks)
    if n_missing == n_pages:
        stats.misses += n_pages
        self._make_room(n_pages)
        views = self.disk.read_page_views(start, n_pages)
        for i, data in enumerate(views):
            frames[start + i] = data
        return payload_concat(views)
    missing = []
    for page, content in zip(pages, resident):
        if content is None:
            missing.append(page)
        else:
            count = pins.get(page, 0)
            pins[page] = count + 1
            if count == 0:
                self.headroom -= 1
    stats.hits += n_pages - len(missing)
    stats.misses += len(missing)
    for run_start, run_len in contiguous_runs(missing):
        self._make_room(run_len)
        views = self.disk.read_page_views(run_start, run_len)
        for i, data in enumerate(views):
            frames[run_start + i] = data
            pins[run_start + i] = 1
        self.headroom -= run_len
    chunks = []
    for page in pages:
        count = pins[page] - 1
        if count == 0:
            del pins[page]
            self.headroom += 1
        else:
            pins[page] = count
        frames.move_to_end(page)
        chunks.append(_page_image(self.page(page), page_size))
    return payload_concat(chunks)


def fits(pool: BufferPool, start: int, n_pages: int) -> bool:
    """Whether the run can be held beside the frames pinned outside it."""
    pages = range(start, start + n_pages)
    if all(pool.is_resident(page) for page in pages):
        return True
    pinned_outside = pool.capacity - pool.headroom - sum(
        1 for page, pins, _ in pool.frames() if page in pages and pins
    )
    return n_pages + pinned_outside <= pool.capacity


def resident_frames(pool: BufferPool) -> list[tuple[int, int, bool]]:
    """``(page, pins, dirty)`` of the resident pages, least recent first."""
    return list(pool.frames())


def reference_read_run(
    pool: BufferPool, start: int, n_pages: int, record: bool = True
) -> Payload:
    if not fits(pool, start, n_pages):
        raise BufferPoolError("all buffer frames are pinned")
    data = _three_branch_read_run(pool, start, n_pages, record)
    if not record and n_pages > 1:
        # A phantom run of two or more pages is read for its length.
        return SizedPayload(n_pages * pool.config.page_size)
    return data


# ----------------------------------------------------------------------
# Twin traced pools
# ----------------------------------------------------------------------
class Twin:
    """One pool on its own traced environment."""

    def __init__(self, frames: int, recorded: bool, reference: bool) -> None:
        config = small_page_config(page_size=PAGE, buffer_pool_pages=frames)
        self.tracer = Tracer()
        self.traced = 0
        self.env = StorageEnvironment(config, tracer=self.tracer)
        self.pool = self.env.pool
        if reference:
            self.pool.read_run = functools.partial(
                reference_read_run, self.pool
            )
        disk = self.env.disk
        if recorded:
            for page in range(BASE, BASE + SPAN - 3):
                disk.poke_pages(page, bytes([page]) * PAGE)
        else:
            disk.write_pages(BASE, SPAN // 2, SizedPayload(0), record=False)

    def observable(self) -> dict[str, object]:
        pool = self.pool
        events = self.tracer.records[self.traced:]
        self.traced += len(events)
        return {
            "pool": dataclasses.astuple(pool.stats),
            "io": dataclasses.astuple(self.env.cost.stats),
            "headroom": pool.headroom,
            "frames": [
                (page, pins, dirty, type(pool.page(page)),
                 bytes(pool.page(page)))
                for page, pins, dirty in resident_frames(pool)
            ],
            "events since the last look": events,
        }


def outcome(call):
    """What a call gave back, comparable across the twins."""
    try:
        result = call()
    except BufferPoolError as error:
        return ("refused", str(error))
    if result is None:
        return ("done",)
    return ("payload", type(result), len(result), bytes(result))


SITUATIONS = {
    "one-page hit on a full pool",
    "one-page miss on a full pool",
    "mixed run with two missing sub-runs",
    "eviction skips a dirty frame for a clean one",
    "the run's resident page would have been the victim",
    "refused run that is partly resident",
    "refused run with nothing resident",
}


def situations(pool: BufferPool, start: int, n_pages: int) -> set[str]:
    """Which of the named situations the run is about to meet."""
    frames = resident_frames(pool)
    pages = range(start, start + n_pages)
    missing = [page for page in pages if not pool.is_resident(page)]
    full = len(frames) == pool.capacity
    seen = set()
    if not fits(pool, start, n_pages):
        seen.add(
            "refused run that is partly resident" if len(missing) < n_pages
            else "refused run with nothing resident"
        )
        return seen
    if n_pages == 1 and full:
        seen.add(
            "one-page miss on a full pool" if missing
            else "one-page hit on a full pool"
        )
    if 0 < len(missing) < n_pages and len(contiguous_runs(missing)) == 2:
        seen.add("mixed run with two missing sub-runs")
    if missing and len(frames) + len(missing) > pool.capacity:
        unpinned = [(page, dirty) for page, pins, dirty in frames if not pins]
        if unpinned[0][0] in pages:
            seen.add("the run's resident page would have been the victim")
        candidates = [dirty for page, dirty in unpinned if page not in pages]
        if candidates and candidates[0] and not all(candidates):
            seen.add("eviction skips a dirty frame for a clean one")
    return seen


@pytest.mark.parametrize("recorded", [False, True], ids=["phantom", "recorded"])
@pytest.mark.parametrize("frames", [1, 3, 12])
def test_one_pass_matches_the_three_branches(frames, recorded):
    """Seeded interleavings of runs of 1-5 pages with fix, unfix, dirty
    unfix, write_run and invalidate_run over 16 pages: after every step
    the twins returned the same thing and look the same."""
    rng = random.Random(1992 + frames)
    new = Twin(frames, recorded, reference=False)
    old = Twin(frames, recorded, reference=True)
    held: list[int] = []
    seen: set[str] = set()
    assert new.observable() == old.observable()
    for step in range(2500):
        # Pins pile up in every other stretch of 250 steps and drain in
        # the stretches between, so runs meet the pool nearly free and
        # nearly all pinned.
        piling = step // 250 % 2 == 1
        op = rng.choice(
            ("read", "read", "read", "read", "fix", "fix", "unfix", "dirty",
             "write", "invalidate") + (("fix",) * 3 if piling else ("unfix",))
        )
        start = rng.randrange(BASE, BASE + SPAN)
        n_pages = rng.choice((1, 1, 2, 3, 3, 4, 5))
        if op == "read":
            seen |= situations(new.pool, start, n_pages)
            before = new.observable()
            results = [
                outcome(lambda: twin.pool.read_run(start, n_pages, recorded))
                for twin in (new, old)
            ]
            if results[0][0] == "refused":
                assert new.observable() == {
                    **before, "events since the last look": []
                }
                old.observable()
                continue
        elif op == "fix":
            results = [
                outcome(lambda: twin.pool.fix(start)) for twin in (new, old)
            ]
            if results[0] == ("done",):
                held.append(start)
        elif op in ("unfix", "dirty"):
            if not held:
                continue
            page = held.pop(rng.randrange(len(held)))
            image = bytes([rng.randrange(256)]) * PAGE if recorded else None
            for twin in (new, old):
                if op == "dirty" and image is not None:
                    twin.pool.update_if_resident(page, image, dirty=True)
                twin.pool.unfix(page, dirty=op == "dirty")
            results = []
        elif op == "write":
            if recorded:
                data: Payload = bytes([rng.randrange(256)]) * (
                    n_pages * PAGE - rng.choice((0, 5))
                )
            else:
                data = SizedPayload(n_pages * PAGE)
            results = [
                outcome(lambda: twin.pool.write_run(
                    start, n_pages, data, record=recorded
                ))
                for twin in (new, old)
            ]
        else:
            results = [
                outcome(lambda: twin.pool.invalidate_run(start, n_pages))
                for twin in (new, old)
            ]
        assert results[:1] == results[1:]
        assert new.observable() == old.observable()
    for page in held:
        new.pool.unfix(page)
    new.pool.assert_pin_balanced()
    expected = set(SITUATIONS)
    if frames == 1:
        # One frame holds no run of two pages, so nothing is ever mixed.
        expected = {
            "one-page hit on a full pool", "one-page miss on a full pool",
            "refused run that is partly resident",
            "refused run with nothing resident",
        }
    assert seen == expected


# ----------------------------------------------------------------------
# A refused run
# ----------------------------------------------------------------------
class TestARefusedRunChangesNothing:
    """A run that does not fit beside the pinned frames is refused before
    a hit or miss is counted, a page pinned or a frame evicted: the
    ``pool-*`` rows of the refusal table in ``tests/test_refusals.py``."""

    def test_the_run_that_just_fits_is_read(self):
        """The criterion is exact: the resident page of the run is not
        counted against it a second time."""
        config = small_page_config(page_size=PAGE, buffer_pool_pages=4)
        pool = StorageEnvironment(config).pool
        for page in (10, 11, 12):
            pool.fix(page)
        pool.read_run(50, 1)
        pool.unfix(12)
        pool.read_run(50, 2)                # 2 pinned outside + 2 = 4 frames
        assert pool.is_resident(50) and pool.is_resident(51)
        assert not pool.is_resident(12)
        assert pool.stats.hits == 1 and pool.stats.evictions == 1


# ----------------------------------------------------------------------
# A phantom run is read for its length
# ----------------------------------------------------------------------
#: The recorded reads that leave the planted page BASE + 2 missing, the
#: run BASE .. BASE + 3 partly resident, or all of it resident.
WARM_UP = {
    "all-missing": [],
    "mixed": [(BASE, 1)],
    "all-resident": [(BASE, 3)],
}


@pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"],
                         indirect=True)
@pytest.mark.parametrize("case", list(WARM_UP))
def test_phantom_run_checks_its_premise(case, checked):
    """A ``record=False`` run of two or more pages returns its length
    because every page of it reads as zeros; under ``REPRO_CHECKS=1`` a
    recorded non-zero page in it is a contract violation."""
    config = small_page_config(page_size=PAGE, buffer_pool_pages=4)
    env = StorageEnvironment(config)
    env.disk.write_pages(BASE, 3, SizedPayload(0), record=False)
    env.disk.poke_pages(BASE + 2, b"\x07" * PAGE)
    pool = env.pool
    for start, n_pages in WARM_UP[case]:
        pool.read_run(start, n_pages)
    if checked:
        with pytest.raises(ContractViolationError, match="recorded bytes"):
            pool.read_run(BASE, 3, record=False)
    else:
        result = pool.read_run(BASE, 3, record=False)
        assert type(result) is SizedPayload and len(result) == 3 * PAGE
