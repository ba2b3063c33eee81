"""The buffer manager of Section 3.2.

A fixed number of page frames (12 in the paper's experiments) managed with
an LRU policy that prefers evicting clean pages: "we start first by freeing
the least recently used clean pages followed by dirty pages that, of
course, have to be written back to disk".

A resident page is one entry of an ``OrderedDict`` in recency order: its
image, or a builder of it (a pending index image's ``peek_pages``, a buddy
directory's serializer), called only when the bytes are handed out or
written back.  Dirty pages and pins live in two side tables: ``_dirty``
maps a dirty page to the ``record`` flag of its writeback, fixed when the
page first becomes dirty (``fix_new``'s ``record``, else True), and
``_pins`` holds pin counts, with :attr:`~BufferPool.headroom` kept equal
to ``capacity`` minus the pinned pages.

The pool supports the usual fix/unfix interface with pin counts, a
one-page touch that holds no pin (:meth:`~BufferPool.access`), plus
multi-page runs: :meth:`read_run` reads a run of physically adjacent pages
into the pool with one physical I/O per missing sub-run, which is how
segments of up to ``max_buffered_segment_pages`` pages are buffered.
Larger segments bypass the pool entirely (see :mod:`repro.segio`).

No path of the storage stack takes a pin: ``access``, ``access_new`` and
``read_run`` leave ``_pins`` empty, and ``fix``/``fix_new``/``unfix``
remain for callers that hold a page across other pool calls.
A phantom run (``record=False``, Section 4.1) of two or more pages is
read for its length alone: the pool charges and caches it as any run and
returns a :class:`~repro.core.payload.SizedPayload`.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
from typing import Callable, Iterable, Iterator, Union

from repro.core.config import SystemConfig
from repro.core.errors import BufferPoolError, ContractViolationError
from repro.core.payload import Payload, SizedPayload, payload_concat
from repro.disk.disk import SimulatedDisk, contiguous_runs
from repro.lint.contracts import pure_read

#: What a resident page holds: its image, or a builder of it.
Resident = Union[Payload, Callable[[], bytes]]


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


class BufferPool:
    """LRU buffer pool over a :class:`~repro.disk.disk.SimulatedDisk`."""

    def __init__(self, config: SystemConfig, disk: SimulatedDisk) -> None:
        self.config = config
        self.disk = disk
        #: The disk's runtime-checks switch (see ``SimulatedDisk.checks``).
        self.checks = disk.checks
        self.capacity = config.buffer_pool_pages
        #: Resident pages in recency order, each to its image or its
        #: builder: a hit moves the page to the end, so victim selection
        #: reads from the front instead of ranking every page.
        self._frames: collections.OrderedDict[int, Resident] = (
            collections.OrderedDict()
        )
        #: Dirty resident page -> the ``record`` flag of its writeback.
        self._dirty: dict[int, bool] = {}
        #: Pinned resident page -> its pin count (never zero).
        self._pins: dict[int, int] = {}
        #: ``capacity`` minus the pinned pages, kept by fix/fix_new/unfix:
        #: the frames a page or run can be brought into now.
        self.headroom = self.capacity
        self.stats = PoolStats()
        #: ``REPRO_CHECKS=1`` bookkeeping: page id -> acquisition sites of
        #: the pins currently held on it, for leak attribution.  Empty
        #: (and never touched) when the sanitizer is off.
        self._san_pins: dict[int, list[str]] = {}

    # ------------------------------------------------------------------
    # Access / fix / unfix
    # ------------------------------------------------------------------
    def access(self, page_id: int,
               provider: Callable[[], bytes] | None = None) -> None:
        """One charged touch of the page, with no pin held after it.

        Counts, orders and evicts exactly as :meth:`fix` then
        :meth:`unfix` would: a hit moves the page to the recency end, a
        miss makes room and reads the page from disk.  A miss on a page
        whose image is still pending (a shadowed index page) keeps the
        disk's builder in its place, so the image is built only when its
        bytes are handed out (:meth:`page`).  With a ``provider`` the page
        takes it and is left dirty, so the content is produced only when
        the page reaches disk.

        Raises :class:`BufferPoolError`, before anything is counted, if
        every frame is pinned and the page is not resident.
        """
        frames = self._frames
        if page_id in frames:
            self.stats.hits += 1
            frames.move_to_end(page_id)
        else:
            if not self.headroom:
                raise BufferPoolError("all buffer frames are pinned")
            self.stats.misses += 1
            if len(frames) >= self.capacity:
                self._evict_many(1)
            frames[page_id] = self.disk.read_pages(page_id, 1, build=False)
        if provider is not None:
            frames[page_id] = provider
            self._dirty.setdefault(page_id, True)

    def fix(self, page_id: int) -> None:
        """Pin the page in the pool: :meth:`access`, then one pin.

        Raises :class:`BufferPoolError`, before anything is counted, if
        every frame is pinned and the page is not resident.
        """
        self.access(page_id)
        pins = self._pins
        count = pins.get(page_id, 0)
        if not count:
            self.headroom -= 1
        pins[page_id] = count + 1
        if self.checks:
            self._san_note(page_id)

    def fix_new(self, page_id: int, data: Payload | None = None,
                record: bool = True) -> None:
        """Pin a freshly allocated page without reading it from disk.

        The page starts dirty, written back with ``record``: the caller is
        responsible for the content reaching disk (via :meth:`flush_page`
        or eviction).
        """
        frames = self._frames
        if page_id in frames:
            raise BufferPoolError(f"page {page_id} is already resident")
        self._make_room(1)
        frames[page_id] = data if data is not None else b""
        self._dirty[page_id] = record
        self._pins[page_id] = 1
        self.headroom -= 1
        if self.checks:
            self._san_note(page_id)

    def access_new(self, page_id: int, provider: Callable[[], bytes]) -> None:
        """Install a freshly allocated page, dirty, with no pin held.

        :meth:`fix_new` and a dirty :meth:`unfix` in one call, with
        ``provider`` as the page's content: no read, no count, the same
        victim, and the page ends at the recency end.
        """
        frames = self._frames
        if page_id in frames:
            raise BufferPoolError(f"page {page_id} is already resident")
        self._make_room(1)
        frames[page_id] = provider
        self._dirty[page_id] = True

    def unfix(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on the page, optionally marking it dirty."""
        pins = self._pins
        count = pins.get(page_id)
        if not count:
            raise BufferPoolError(f"page {page_id} is not fixed")
        if count == 1:
            del pins[page_id]
            self.headroom += 1
        else:
            pins[page_id] = count - 1
        if dirty:
            self._dirty.setdefault(page_id, True)
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
        and failed exits), when no page may still be pinned.  The message
        names the leaked pages and, when the sanitizer recorded them,
        the exact fix()/fix_new() call sites that acquired the pins.
        """
        leaked = self._pins
        where = f" after {context}" if context else ""
        if not leaked:
            if self.headroom != self.capacity:
                raise ContractViolationError(
                    f"pin accounting drift{where}: "
                    f"_pinned={self.capacity - self.headroom} "
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def page(self, page_id: int) -> Payload:
        """A resident page's content, as stored: no count, no I/O, no
        change to the recency order.  A builder (a pending image, a
        provider) is called for it.  Raises :class:`BufferPoolError` if
        the page is not resident.
        """
        content = self._frames.get(page_id)
        if content is None:
            raise BufferPoolError(f"page {page_id} is not resident")
        return content() if callable(content) else content

    @pure_read
    def is_resident(self, page_id: int) -> bool:
        """True if the page is currently cached."""
        return page_id in self._frames

    @property
    def resident_count(self) -> int:
        """Number of frames currently holding a page."""
        return len(self._frames)

    def frames(self) -> Iterator[tuple[int, int, bool]]:
        """``(page_id, pin_count, dirty)`` of every resident page, least
        recently used first.  No I/O and no change to the recency order.
        """
        pins, dirty = self._pins, self._dirty
        for page_id in self._frames:
            yield page_id, pins.get(page_id, 0), page_id in dirty

    def resident_image(self, page_id: int) -> Payload | None:
        """The full image of a cached page, counted as a hit, else None.

        The copy-out of the 3-step I/O (Section 3.2): unlike
        :meth:`read_run` a resident page keeps its place in the recency
        order, and a missing one is neither read nor counted — the
        caller decides how it is fetched.  A plain method, not a
        ``@pure_read`` bracket: it sits on every unaligned segment read.
        """
        content = self._frames.get(page_id)
        if content is None:
            return None
        self.stats.hits += 1
        if callable(content):
            content = content()
        return _page_image(content, self.config.page_size)

    # ------------------------------------------------------------------
    # Multi-page runs
    # ------------------------------------------------------------------
    def read_run(self, start: int, n_pages: int, record: bool = True) -> Payload:
        """Bring pages ``start .. start+n_pages-1`` into the pool, unpinned.

        Pages already resident are reused (and counted as hits); each
        maximal missing sub-run is read with a single physical I/O, after
        evicting around the run's own pages the way eviction steps around
        pinned pages, so the run takes no pin.  Every page of the run then
        ends at the recency end, in request order.  Returns the
        concatenated content of the whole run; a ``record=False`` run of
        two or more pages returns its length alone, a
        :class:`~repro.core.payload.SizedPayload`, with no byte work.

        A run the pool cannot hold beside the pages pinned outside it
        is refused with :class:`BufferPoolError` before anything is
        counted, evicted or read (exact for a run that is partly
        resident).
        """
        frames = self._frames
        stats = self.stats
        capacity = self.capacity
        if n_pages == 1:
            # The usual run (a boundary page, an index page): one probe.
            content = frames.get(start)
            if content is not None:
                stats.hits += 1
                frames.move_to_end(start)
                if callable(content):
                    content = content()
                return _page_image(content, self.config.page_size)
            if not self.headroom:
                raise BufferPoolError("all buffer frames are pinned")
            stats.misses += 1
            if len(frames) >= capacity:
                self._evict_many(1)
            content = frames[start] = self.disk.read_page_views(start, 1)[0]
            return content
        end = start + n_pages
        pages = range(start, end)
        if not any(map(frames.__contains__, pages)):
            # No page resident, so none pinned: the refusal is the
            # headroom alone, then room once, one disk call, and the
            # pages appended in request order, their recency order.
            if n_pages > self.headroom:
                raise BufferPoolError("all buffer frames are pinned")
            stats.misses += n_pages
            need = len(frames) + n_pages - capacity
            if need > 0:
                self._evict_many(need, start, end)
            frames.update(zip(pages, self.disk.read_page_views(start, n_pages)))
        else:
            # Partly resident: one probe per page decides hit or miss.
            missing = []
            for page_id in pages:
                if page_id not in frames:
                    missing.append(page_id)
            n_missing = len(missing)
            if n_missing:
                pins = self._pins
                pinned_in_run = 0
                if pins:
                    for page_id in pages:
                        if page_id in pins:
                            pinned_in_run += 1
                if n_pages - pinned_in_run > self.headroom:
                    raise BufferPoolError("all buffer frames are pinned")
                stats.misses += n_missing
            stats.hits += n_pages - n_missing
            # Each missing sub-run in order: room made around the run's
            # own pages, one disk call, pages appended unpinned; then
            # every page of the run moves to the recency end in order.
            for run_start, run_len in contiguous_runs(missing):
                need = len(frames) + run_len - capacity
                if need > 0:
                    self._evict_many(need, start, end)
                frames.update(zip(
                    range(run_start, run_start + run_len),
                    self.disk.read_page_views(run_start, run_len),
                ))
            move_to_end = frames.move_to_end
            for page_id in pages:
                move_to_end(page_id)
        page_size = self.config.page_size
        if not record:
            if self.checks:
                self._check_phantom_run(start, n_pages)
            return SizedPayload(n_pages * page_size)
        return payload_concat([
            _page_image(self.page(page_id), page_size) for page_id in pages
        ])

    def _check_phantom_run(self, start: int, n_pages: int) -> None:
        """The premise of a ``record=False`` read, under ``REPRO_CHECKS=1``:
        the run is returned as its length, so each of its pages, resident
        now, must read as zeros."""
        for page_id in range(start, start + n_pages):
            content = self.page(page_id)
            if content != bytes(len(content)):
                raise ContractViolationError(
                    f"phantom run {start}+{n_pages} holds recorded bytes "
                    f"at page {page_id}"
                )

    # ------------------------------------------------------------------
    # Writeback and invalidation
    # ------------------------------------------------------------------
    def write_run(self, start: int, n_pages: int,
                  data: Payload | list[Callable[[], bytes]],
                  record: bool = True) -> None:
        """Write a run of adjacent pages in one I/O, refreshing the cache.

        The sanctioned path for layers above the pool to put page-aligned
        images on disk without fixing pages: the write is charged as one
        physical access and any resident copy is refreshed (clean) so
        later buffered reads see the new content.  ``data`` may be one
        builder per page, which the disk keeps unbuilt
        (:meth:`~repro.disk.disk.SimulatedDisk.write_pages`); a resident
        copy then reads it back from the disk.
        """
        self.disk.write_pages(start, n_pages, data, record=record)
        resident = self.resident_in(start, n_pages)
        if not resident:
            return
        if isinstance(data, list):
            self._read_back(resident)
            return
        frames = self._frames
        dirty = self._dirty
        page_size = self.config.page_size
        for page_id in resident:
            # Slice the page once and store the finished image, clean:
            # update_if_resident's refresh, inlined.
            lo = (page_id - start) * page_size
            frames[page_id] = _page_image(data[lo : lo + page_size], page_size)
            dirty.pop(page_id, None)

    def commit_image(self, page_id: int, build: Callable[[], bytes]) -> None:
        """Commit a metadata page, uncharged: the commit point of a root
        or descriptor.  The disk keeps ``build`` unbuilt
        (:meth:`~repro.disk.disk.SimulatedDisk.defer_image`) and a
        resident copy is refreshed clean to read it back from there."""
        self.disk.defer_image(page_id, build)
        if page_id in self._frames:
            self._read_back((page_id,))

    def _read_back(self, page_ids: Iterable[int]) -> None:
        """Refresh resident pages, clean, with a read of their disk image
        when their bytes are handed out: a pending image stays unbuilt."""
        frames = self._frames
        dirty = self._dirty
        peek_pages = self.disk.peek_pages
        for page_id in page_ids:
            frames[page_id] = functools.partial(peek_pages, page_id, 1)
            dirty.pop(page_id, None)

    def update_if_resident(self, page_id: int, data: Payload,
                           dirty: bool = False) -> None:
        """Refresh the cached copy of a page after it was written to disk."""
        if page_id in self._frames:
            self._frames[page_id] = data
            if dirty:
                self._dirty.setdefault(page_id, True)
            else:
                self._dirty.pop(page_id, None)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the pool, discarding any dirty content.

        Used when the page's disk space is freed; raises if pinned.
        """
        if page_id not in self._frames:
            return
        if page_id in self._pins:
            raise BufferPoolError(f"cannot invalidate pinned page {page_id}")
        del self._frames[page_id]
        self._dirty.pop(page_id, None)

    def invalidate_run(self, start: int, n_pages: int) -> None:
        """Invalidate every resident page in the run, or none of them.

        Raises if any of them is pinned, before dropping anything.
        """
        frames = self._frames
        dirty = self._dirty
        resident = self.resident_in(start, n_pages)
        for page_id in resident:
            if page_id in self._pins:
                raise BufferPoolError(
                    f"cannot invalidate pinned page {page_id}"
                )
        for page_id in resident:
            del frames[page_id]
            dirty.pop(page_id, None)

    def resident_in(self, start: int, n_pages: int) -> list[int]:
        """The run's resident page ids, ascending.

        Whichever is smaller is probed, the run or the pool: a freed
        Starburst tail is ~1,000 pages against at most ``capacity`` pages.
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
        """Drop every page without writeback: reboot semantics.

        Crash recovery restarts the pool from the disk image alone —
        whatever was resident (including dirty pages that never made
        it to disk) is lost, exactly as a power failure loses RAM.
        Raises if any page is still pinned: a pinned page means an
        operation is mid-flight and "rebooting" under it would be a
        caller bug, not a crash simulation.
        """
        for page_id in self._frames:
            if page_id in self._pins:
                raise BufferPoolError(
                    f"cannot reset pool with pinned page {page_id}"
                )
        self._frames.clear()
        self._dirty.clear()
        self._pins.clear()
        self.headroom = self.capacity
        self._san_pins.clear()

    def flush_page(self, page_id: int) -> None:
        """Write the page to disk now if it is resident and dirty."""
        if page_id in self._dirty:
            self._writeback(page_id)

    def flush_all(self) -> None:
        """Write every dirty page to disk, grouping contiguous runs."""
        dirty = self._dirty
        page_size = self.config.page_size
        for run_start, run_len in contiguous_runs(sorted(dirty)):
            run = range(run_start, run_start + run_len)
            data = payload_concat([
                _page_image(self.page(page_id), page_size) for page_id in run
            ])
            record = all(dirty[page_id] for page_id in run)
            tracer = self.disk.tracer
            if tracer is not None:
                tracer.event("pool.writeback", page=run_start, pages_n=run_len)
            self.disk.write_pages(run_start, run_len, data, record=record)
            for page_id in run:
                del dirty[page_id]
                self.stats.dirty_writebacks += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_room(self, n_frames: int) -> None:
        need = len(self._frames) + n_frames - self.capacity
        if need > 0:
            self._evict_many(need)

    def _evict_many(self, k: int, start: int = 0, end: int = 0) -> None:
        """Evict ``k`` pages: the LRU clean ones first, then the LRU dirty
        ones, each written back as it goes.

        Pinned pages and the pages of the run ``[start, end)`` being read
        are never victims: :meth:`read_run` keeps its own pages this way
        instead of pinning them.  ``_frames`` iterates in recency order,
        so one scan finds the clean victims; removing a clean page leaves
        every other page's state untouched, so when ``k`` of them exist
        they are dropped in one pass.  Short of ``k``, every clean
        candidate goes, then dirty candidates in recency order, one at a
        time (a writeback that crashes leaves its page and the ones after
        it resident and uncounted), and a pool with no candidate left
        refuses the rest with :class:`BufferPoolError`.
        """
        skip = self._dirty
        if self._pins:
            skip = skip.keys() | self._pins.keys()
        frames = self._frames
        victims = []
        left = k
        for page_id in frames:
            if page_id in skip or start <= page_id < end:
                continue
            victims.append(page_id)
            left -= 1
            if not left:
                break
        else:
            # Short of k clean candidates: every one of them goes, then
            # the LRU dirty candidates, each written back first.
            stats = self.stats
            tracer = self.disk.tracer
            for page_id in victims:
                stats.evictions += 1
                del frames[page_id]
                if tracer is not None:
                    tracer.event("pool.evict", page=page_id, dirty=False)
            # Every candidate left is dirty.  A loop, not a comprehension:
            # one would turn start and end into closure cells, which the
            # scan above then reads more slowly.
            pins = self._pins
            victims = []
            for page_id in frames:
                if page_id not in pins and not start <= page_id < end:
                    victims.append(page_id)
            for page_id in victims[:left]:
                self._writeback(page_id)
                stats.evictions += 1
                del frames[page_id]
                if tracer is not None:
                    tracer.event("pool.evict", page=page_id, dirty=True)
            if len(victims) < left:
                raise BufferPoolError("all buffer frames are pinned")
            return
        tracer = self.disk.tracer
        for page_id in victims:
            del frames[page_id]
            if tracer is not None:
                tracer.event("pool.evict", page=page_id, dirty=False)
        self.stats.evictions += k

    def _writeback(self, page_id: int) -> None:
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.event("pool.writeback", page=page_id)
        content = _page_image(self.page(page_id), self.config.page_size)
        self.disk.write_pages(page_id, 1, content,
                              record=self._dirty[page_id])
        del self._dirty[page_id]
        self.stats.dirty_writebacks += 1


def _page_image(content: Payload, page_size: int) -> Payload:
    """Pad content to a full page image; full pages pass through unchanged."""
    if len(content) == page_size:
        return content
    return content.ljust(page_size, b"\x00")
