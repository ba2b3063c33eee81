"""The buffer manager of Section 3.2.

A fixed number of page frames (12 in the paper's experiments) managed with
an LRU policy that prefers evicting clean pages: "we start first by freeing
the least recently used clean pages followed by dirty pages that, of
course, have to be written back to disk".

The pool supports the usual fix/unfix interface with pin counts, a
one-page touch that holds no pin (:meth:`~BufferPool.access`), plus
multi-page runs: :meth:`read_run` reads a run of physically adjacent pages
into the pool with one physical I/O per missing sub-run, which is how
segments of up to ``max_buffered_segment_pages`` pages are buffered.
Larger segments bypass the pool entirely (see :mod:`repro.segio`).

No path of the storage stack takes a pin: ``access``, ``access_new`` and
``read_run`` leave every pin count at zero, and ``fix``/``fix_new``/
``unfix`` remain for callers that hold a page across other pool calls.
A phantom run (``record=False``, Section 4.1) of two or more pages is
read for its length alone: the pool charges and caches it as any run and
returns a :class:`~repro.core.payload.SizedPayload`.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
from typing import Callable, Iterator

from repro.buffer.frame import Frame
from repro.core.config import SystemConfig
from repro.core.errors import BufferPoolError, ContractViolationError
from repro.core.payload import Payload, SizedPayload, payload_concat
from repro.disk.disk import PendingImage, SimulatedDisk, contiguous_runs
from repro.lint.contracts import checks_enabled, pure_read


@dataclasses.dataclass
class PoolStats:
    """Hit/miss counters for the buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups satisfied without disk I/O."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def add(self, other: "PoolStats") -> None:
        """Accumulate another pool's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.dirty_writebacks += other.dirty_writebacks


class BufferPool:
    """LRU buffer pool over a :class:`~repro.disk.disk.SimulatedDisk`."""

    def __init__(self, config: SystemConfig, disk: SimulatedDisk) -> None:
        self.config = config
        self.disk = disk
        self.capacity = config.buffer_pool_pages
        #: Resident frames in recency order: every :meth:`_touch` moves the
        #: frame to the end, so victim selection reads from the front
        #: instead of scanning every frame for the least recent.
        self._frames: collections.OrderedDict[int, Frame] = (
            collections.OrderedDict()
        )
        #: Number of resident frames with pin_count > 0, maintained on
        #: every pin/unpin so availability queries are O(1).
        self._pinned = 0
        self.stats = PoolStats()
        #: ``REPRO_CHECKS=1`` bookkeeping: page id -> acquisition sites of
        #: the pins currently held on it, for leak attribution.  Empty
        #: (and never touched) when the sanitizer is off.
        self._san_pins: dict[int, list[str]] = {}

    # ------------------------------------------------------------------
    # Access / fix / unfix
    # ------------------------------------------------------------------
    def access(self, page_id: int,
               provider: Callable[[], bytes] | None = None) -> Frame:
        """One charged touch of the page, with no pin held after it.

        Counts, orders and evicts exactly as :meth:`fix` then
        :meth:`unfix` would: a hit moves the frame to the recency end, a
        miss makes room and reads the page from disk.  A miss on a page
        whose image is still pending (a shadowed index page) keeps the
        disk's builder as the frame's provider, so the image is built
        only when its bytes are handed out.  With a ``provider`` the
        frame takes it and is left dirty, so the content is produced
        only when the page reaches disk.  The returned frame is valid
        until the next call that can evict.

        Raises :class:`BufferPoolError`, before anything is counted, if
        every frame is pinned and the page is not resident.
        """
        frames = self._frames
        frame = frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            frames.move_to_end(page_id)
        else:
            if self._pinned >= self.capacity:
                raise BufferPoolError("all buffer frames are pinned")
            self.stats.misses += 1
            if len(frames) >= self.capacity:
                self._evict_many(1)
            content = self.disk.read_pages(page_id, 1, build=False)
            frame = (Frame(page_id, provider=content) if callable(content)
                     else Frame(page_id, content))
            frames[page_id] = frame
        if provider is not None:
            frame.provider = provider
            frame.dirty = True
        return frame

    def fix(self, page_id: int) -> Frame:
        """Pin the page in the pool: :meth:`access`, then one pin.

        Raises :class:`BufferPoolError`, before anything is counted, if
        every frame is pinned and the page is not resident.
        """
        frame = self.access(page_id)
        frame.pin_count += 1
        if frame.pin_count == 1:
            self._pinned += 1
        if checks_enabled():
            self._san_note(page_id)
        return frame

    def fix_new(self, page_id: int, data: Payload | None = None,
                record: bool = True) -> Frame:
        """Pin a freshly allocated page without reading it from disk.

        The frame starts dirty: the caller is responsible for the content
        reaching disk (via :meth:`flush_page` or eviction).
        """
        if page_id in self._frames:
            raise BufferPoolError(f"page {page_id} is already resident")
        self._make_room(1)
        frame = Frame(page_id=page_id, data=data, dirty=True,
                      pin_count=1, record=record)
        self._frames[page_id] = frame
        self._pinned += 1
        self._touch(frame)
        if checks_enabled():
            self._san_note(page_id)
        return frame

    def access_new(self, page_id: int, provider: Callable[[], bytes]) -> None:
        """Install a freshly allocated page, dirty, with no pin held.

        :meth:`fix_new`, :meth:`set_provider` and a dirty :meth:`unfix`
        in one call: no read, no count, the same victim, and the frame
        ends at the recency end with ``provider`` as its content.
        """
        frames = self._frames
        if page_id in frames:
            raise BufferPoolError(f"page {page_id} is already resident")
        self._make_room(1)
        frames[page_id] = Frame(page_id, dirty=True, provider=provider)

    def unfix(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on the page, optionally marking it dirty."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_id} is not fixed")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self._pinned -= 1
        if dirty:
            frame.dirty = True
        if self._san_pins:
            sites = self._san_pins.get(page_id)
            if sites:
                sites.pop()
                if not sites:
                    del self._san_pins[page_id]

    # ------------------------------------------------------------------
    # REPRO_CHECKS pin-balance sanitizer
    # ------------------------------------------------------------------
    def _san_note(self, page_id: int) -> None:
        """Record the call site that just pinned ``page_id``."""
        caller = sys._getframe(2)
        site = (
            f"{caller.f_code.co_filename.rsplit('/', 1)[-1]}:"
            f"{caller.f_lineno} ({caller.f_code.co_name})"
        )
        self._san_pins.setdefault(page_id, []).append(site)

    def assert_pin_balanced(self, context: str = "") -> None:
        """Raise unless every page's pin count is back to zero.

        The one pin-balance check: called between operations
        (``REPRO_CHECKS=1`` hooks it into every manager op span, on normal
        and failed exits), when no frame may still be pinned.  The message
        names the leaked pages and, when the sanitizer recorded them,
        the exact fix()/fix_new() call sites that acquired the pins.
        """
        leaked = {
            page_id: frame.pin_count
            for page_id, frame in self._frames.items()
            if frame.pin_count > 0
        }
        where = f" after {context}" if context else ""
        if not leaked:
            if self._pinned:
                raise ContractViolationError(
                    f"pin accounting drift{where}: _pinned={self._pinned} "
                    "but no frame holds a pin"
                )
            return
        details = []
        for page_id in sorted(leaked):
            sites = ", ".join(self._san_pins.get(page_id, ()))
            details.append(
                f"page {page_id} x{leaked[page_id]}"
                + (f" (fixed at {sites})" if sites else "")
            )
        raise ContractViolationError(
            f"pin leak{where}: " + "; ".join(details)
        )

    def set_provider(self, page_id: int, provider: Callable[[], bytes]) -> None:
        """Attach a lazy content provider to a resident page."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} is not resident")
        frame.provider = provider

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @pure_read
    def lookup(self, page_id: int) -> Frame | None:
        """Return the resident frame for the page, if any (no I/O)."""
        return self._frames.get(page_id)

    @pure_read
    def is_resident(self, page_id: int) -> bool:
        """True if the page is currently cached."""
        return page_id in self._frames

    @property
    def resident_count(self) -> int:
        """Number of frames currently holding a page."""
        return len(self._frames)

    def frames(self) -> Iterator[tuple[int, int, bool]]:
        """``(page_id, pin_count, dirty)`` of every resident frame, least
        recently used first.  No I/O and no change to the recency order.
        """
        for page_id, frame in self._frames.items():
            yield page_id, frame.pin_count, frame.dirty

    def resident_image(self, page_id: int) -> Payload | None:
        """The full image of a cached page, counted as a hit, else None.

        The copy-out of the 3-step I/O (Section 3.2): unlike
        :meth:`read_run` a resident page keeps its place in the recency
        order, and a missing one is neither read nor counted — the
        caller decides how it is fetched.  A plain method, not a
        ``@pure_read`` bracket: it sits on every unaligned segment read.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            return None
        self.stats.hits += 1
        return _page_image(frame.content(), self.config.page_size)

    @pure_read
    def free_or_evictable(self) -> int:
        """Number of frames that are empty or hold unpinned pages.

        Empty slots plus unpinned residents is ``capacity - pinned``, and
        the pinned count is maintained incrementally, so this is O(1).
        """
        return self.capacity - self._pinned

    @property
    def headroom(self) -> int:
        """``capacity - pinned``: the contract-free twin of
        :meth:`free_or_evictable` for checks that guard every segment
        access (the ``@pure_read`` bracketing alone is measurable there).
        """
        return self.capacity - self._pinned

    @pure_read
    def can_accommodate(self, n_pages: int) -> bool:
        """Whether a run of ``n_pages`` can be brought into the pool now.

        This is the run-time "buffer availability" criterion of Section 3.2
        (after Effelsberg & Haerder): the run must fit the pool and enough
        unpinned frames must exist to make room.  (``free_or_evictable``
        inlined: this query guards every segment access.)
        """
        return n_pages <= self.capacity and n_pages <= self.capacity - self._pinned

    # ------------------------------------------------------------------
    # Multi-page runs
    # ------------------------------------------------------------------
    def read_run(self, start: int, n_pages: int, record: bool = True) -> Payload:
        """Bring pages ``start .. start+n_pages-1`` into the pool, unpinned.

        Pages already resident are reused (and counted as hits); each
        maximal missing sub-run is read with a single physical I/O, after
        evicting around the run's own pages the way eviction steps around
        pinned frames, so the run takes no pin.  Every page of the run then
        ends at the recency end, in request order.  Returns the
        concatenated content of the whole run; a ``record=False`` run of
        two or more pages returns its length alone, a
        :class:`~repro.core.payload.SizedPayload`, with no byte work.

        A run the pool cannot hold beside the frames pinned outside it
        is refused with :class:`BufferPoolError` before anything is
        counted, evicted or read (the criterion of
        :meth:`can_accommodate`, exact for a run that is partly resident).
        """
        frames = self._frames
        stats = self.stats
        capacity = self.capacity
        if n_pages == 1:
            # The usual run (a boundary page, an index page): one probe.
            frame = frames.get(start)
            if frame is not None:
                stats.hits += 1
                frames.move_to_end(start)
                return _page_image(frame.content(), self.config.page_size)
            if self._pinned >= capacity:
                raise BufferPoolError("all buffer frames are pinned")
            stats.misses += 1
            if len(frames) >= capacity:
                self._evict_many(1)
            view = self.disk.read_page_views(start, 1)[0]
            frames[start] = Frame(start, view, False, 0, record)
            return view
        # One probe per page decides hit or miss.
        end = start + n_pages
        get = frames.get
        missing = []
        pinned_in_run = 0
        for page_id in range(start, end):
            frame = get(page_id)
            if frame is None:
                missing.append(page_id)
            elif frame.pin_count:
                pinned_in_run += 1
        n_missing = len(missing)
        if n_missing:
            if n_pages + self._pinned - pinned_in_run > capacity:
                raise BufferPoolError("all buffer frames are pinned")
            stats.misses += n_missing
        stats.hits += n_pages - n_missing
        # Each missing sub-run in order: room made around the run's own
        # pages, one disk call, frames appended unpinned.  When nothing
        # was resident the one sub-run is the run, appended in request
        # order, which is already its recency order.
        runs = (
            contiguous_runs(missing) if n_missing < n_pages
            else ((start, n_pages),)
        )
        for run_start, run_len in runs:
            need = len(frames) + run_len - capacity
            if need > 0:
                self._evict_many(need, start, end)
            page_id = run_start
            for data in self.disk.read_page_views(run_start, run_len):
                frames[page_id] = Frame(page_id, data, False, 0, record)
                page_id += 1
        if n_missing < n_pages:
            move_to_end = frames.move_to_end
            for page_id in range(start, end):
                move_to_end(page_id)
        page_size = self.config.page_size
        if not record:
            if checks_enabled():
                self._check_phantom_run(start, n_pages)
            return SizedPayload(n_pages * page_size)
        return payload_concat([
            _page_image(frames[page_id].content(), page_size)
            for page_id in range(start, end)
        ])

    def _check_phantom_run(self, start: int, n_pages: int) -> None:
        """The premise of a ``record=False`` read, under ``REPRO_CHECKS=1``:
        the run is returned as its length, so each of its pages, resident
        now, must read as zeros."""
        for page_id in range(start, start + n_pages):
            content = self._frames[page_id].content()
            if content != bytes(len(content)):
                raise ContractViolationError(
                    f"phantom run {start}+{n_pages} holds recorded bytes "
                    f"at page {page_id}"
                )

    # ------------------------------------------------------------------
    # Writeback and invalidation
    # ------------------------------------------------------------------
    def write_run(self, start: int, n_pages: int,
                  data: Payload | list[PendingImage],
                  record: bool = True) -> None:
        """Write a run of adjacent pages in one I/O, refreshing the cache.

        The sanctioned path for layers above the pool to put page-aligned
        images on disk without fixing frames: the write is charged as one
        physical access and any resident copy is refreshed (clean) so
        later buffered reads see the new content.  ``data`` may be one
        :class:`~repro.disk.disk.PendingImage` per page, which the disk
        keeps unbuilt; a resident copy then reads it back from the disk.
        """
        self.disk.write_pages(start, n_pages, data, record=record)
        page_size = self.config.page_size
        for page_id in self.resident_in(start, n_pages):
            if isinstance(data, list):
                frame = self._frames[page_id]
                frame.data, frame.dirty = None, False
                frame.provider = functools.partial(
                    self.disk.peek_pages, page_id, 1
                )
                continue
            # Slice the page once and hand the finished image through;
            # update_if_resident stores it as-is.
            lo = (page_id - start) * page_size
            page = _page_image(data[lo : lo + page_size], page_size)
            self.update_if_resident(page_id, page)

    def update_if_resident(self, page_id: int, data: Payload,
                           dirty: bool = False) -> None:
        """Refresh the cached copy of a page after it was written to disk."""
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.data = data
            frame.provider = None
            frame.dirty = dirty

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the pool, discarding any dirty content.

        Used when the page's disk space is freed; raises if pinned.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.pin_count:
            raise BufferPoolError(f"cannot invalidate pinned page {page_id}")
        del self._frames[page_id]

    def invalidate_run(self, start: int, n_pages: int) -> None:
        """Invalidate every resident page in the run, or none of them.

        Raises if any of them is pinned, before dropping anything.
        """
        frames = self._frames
        resident = self.resident_in(start, n_pages)
        for page_id in resident:
            if frames[page_id].pin_count:
                raise BufferPoolError(
                    f"cannot invalidate pinned page {page_id}"
                )
        for page_id in resident:
            del frames[page_id]

    def resident_in(self, start: int, n_pages: int) -> list[int]:
        """The run's resident page ids, ascending.

        Whichever is smaller is probed, the run or the pool: a freed
        Starburst tail is ~1,000 pages against at most ``capacity`` frames.
        """
        frames = self._frames
        if n_pages <= len(frames):
            # (A plain loop: a comprehension's call costs more than the
            # one to three probes of the typical short run.)
            resident = []
            for page_id in range(start, start + n_pages):
                if page_id in frames:
                    resident.append(page_id)
            return resident
        end = start + n_pages
        return sorted(
            [page_id for page_id in frames if start <= page_id < end]
        )

    def reset(self) -> None:
        """Drop every frame without writeback: reboot semantics.

        Crash recovery restarts the pool from the disk image alone —
        whatever was resident (including dirty frames that never made
        it to disk) is lost, exactly as a power failure loses RAM.
        Raises if any frame is still pinned: a pinned frame means an
        operation is mid-flight and "rebooting" under it would be a
        caller bug, not a crash simulation.
        """
        for page_id, frame in self._frames.items():
            if frame.pin_count:
                raise BufferPoolError(
                    f"cannot reset pool with pinned page {page_id}"
                )
        self._frames.clear()
        self._pinned = 0
        self._san_pins.clear()

    def flush_page(self, page_id: int) -> None:
        """Write the page to disk now if it is resident and dirty."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self._writeback(frame)

    def flush_all(self) -> None:
        """Write every dirty page to disk, grouping contiguous runs."""
        dirty_ids = sorted(
            page_id for page_id, f in self._frames.items() if f.dirty
        )
        for run_start, run_len in contiguous_runs(dirty_ids):
            data = payload_concat([
                _page_image(
                    self._frames[run_start + i].content(),
                    self.config.page_size,
                )
                for i in range(run_len)
            ])
            record = all(
                self._frames[run_start + i].record for i in range(run_len)
            )
            tracer = self.disk.tracer
            if tracer is not None:
                tracer.event("pool.writeback", page=run_start, pages_n=run_len)
            self.disk.write_pages(run_start, run_len, data, record=record)
            for i in range(run_len):
                frame = self._frames[run_start + i]
                frame.dirty = False
                self.stats.dirty_writebacks += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, frame: Frame) -> None:
        self._frames.move_to_end(frame.page_id)

    def _make_room(self, n_frames: int) -> None:
        need = len(self._frames) + n_frames - self.capacity
        if need > 0:
            self._evict_many(need)

    def _evict_many(self, k: int, start: int = 0, end: int = 0) -> None:
        """Evict ``k`` frames, bulk fast path for the all-clean case.

        Pinned frames and the pages of the run ``[start, end)`` being read
        are never victims: :meth:`read_run` keeps its own pages this way
        instead of pinning them.  ``k`` successive :meth:`_evict_one`
        calls each take the first such candidate that is *clean* in
        recency order, and removing a clean frame leaves every other
        frame's state untouched — so when the first ``k`` clean candidates
        exist, they are exactly the victims the sequential loop would
        pick, in the same order, and can be dropped in one pass (same
        eviction counts, no writebacks, same tracer events).  Any dirty or
        skipped frame short of ``k`` falls back to the exact sequential
        loop.
        """
        victims: list[Frame] = []
        for frame in self._frames.values():
            if frame.pin_count or frame.dirty or start <= frame.page_id < end:
                continue
            victims.append(frame)
            if len(victims) == k:
                break
        if len(victims) < k:
            for _ in range(k):
                self._evict_one(start, end)
            return
        frames = self._frames
        tracer = self.disk.tracer
        for frame in victims:
            del frames[frame.page_id]
            if tracer is not None:
                tracer.event("pool.evict", page=frame.page_id, dirty=False)
        self.stats.evictions += k

    def _evict_one(self, start: int, end: int) -> None:
        victim = self._choose_victim(start, end)
        if victim is None:
            raise BufferPoolError("all buffer frames are pinned")
        was_dirty = victim.dirty
        if was_dirty:
            self._writeback(victim)
        self.stats.evictions += 1
        del self._frames[victim.page_id]
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.event("pool.evict", page=victim.page_id, dirty=was_dirty)

    def _choose_victim(self, start: int, end: int) -> Frame | None:
        """LRU among clean unpinned frames, then dirty unpinned frames,
        outside the run ``[start, end)``.

        ``_frames`` iterates in recency order, so the first unpinned
        clean frame *is* the clean LRU victim — the scan usually stops
        after one or two frames instead of ranking every frame — and the
        first unpinned dirty frame seen is the exact dirty-LRU fallback.
        """
        fallback: Frame | None = None
        for frame in self._frames.values():
            if frame.pin_count or start <= frame.page_id < end:
                continue
            if not frame.dirty:
                return frame
            if fallback is None:
                fallback = frame
        return fallback

    # _choose_victim's recency-order scan is also what makes
    # _evict_many's bulk fast path exact: both read _frames front to
    # back, so "first k clean unpinned frames" is the same victim
    # sequence either way.

    def _writeback(self, frame: Frame) -> None:
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.event("pool.writeback", page=frame.page_id)
        content = _page_image(frame.content(), self.config.page_size)
        self.disk.write_pages(frame.page_id, 1, content, record=frame.record)
        frame.dirty = False
        self.stats.dirty_writebacks += 1


def _page_image(content: Payload, page_size: int) -> Payload:
    """Pad content to a full page image; full pages pass through unchanged."""
    if len(content) == page_size:
        return content
    return content.ljust(page_size, b"\x00")
