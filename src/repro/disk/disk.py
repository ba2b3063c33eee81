"""A simulated disk: a flat array of pages addressed by page id.

Two storage modes coexist on the same disk, mirroring the paper's use of
two database areas (Section 4.1):

* **recorded** pages store their actual byte content.  Index pages and
  buddy-space directories always use this mode, and the tests run the leaf
  data in this mode too so byte-level correctness can be verified.
* **phantom** pages record only that they were written.  The paper's
  simulation "kept track of the number of disk I/O calls ... and the number
  of pages involved in each access" for the leaf area without touching the
  disk; phantom mode is the same trick.  Reads of phantom pages return
  zero-filled bytes of the correct length.

Page state is kept *by the run*, the paper's unit of space and of I/O
(Sections 3.1, 4.1), not by the page.  ``_pages`` holds recorded images
only: ``bytes``, or a :class:`PendingImage` of the builder a writer
handed to :meth:`SimulatedDisk.defer_image` or a charged
:meth:`SimulatedDisk.write_pages`, which the page's first read builds
(and, with :attr:`SimulatedDisk.checks` on, checks against its build at
the write) and replaces by its bytes.  "written in phantom mode" and
"has a recorded image" are two bitmaps of one Python ``int`` per chunk
of ``1 << _CHUNK_BITS`` consecutive page ids (page ids start at
``1 << 40``, so one area-wide ``int`` would make every operation cost
the area).
Writing, discarding or reading a run that holds no recorded bytes is one
mask operation per chunk it touches — a maximal 8,192-page segment
touches three — however long the run is; only pages that carry bytes are
visited one by one.

Every :meth:`read_pages` / :meth:`write_pages` call models one physical
access of physically adjacent blocks: it charges exactly one seek plus one
page-transfer per page through the shared :class:`~repro.disk.iomodel.CostModel`.

Two robustness facilities live at this layer (see ``docs/robustness.md``):

* **Page checksums.**  Every recorded page image is covered by a CRC-32
  envelope verified on every accounted read, so silent corruption raises
  :class:`~repro.core.errors.ChecksumError` instead of propagating.  The
  CRC is taken only where it can differ from the image: stored images
  are immutable ``bytes`` written only by the write path (``write_pages``,
  ``poke_pages``, ``defer_image``), and :meth:`SimulatedDisk.corrupt_page`
  stays the one thing that replaces an image out of band.  So
  ``corrupt_page`` records the intact (built) image's CRC once, before
  its first bit flip; every write, poke, deferral or discard of the page
  drops it; and reads check only the pages that have one.  That raises
  exactly the errors a CRC taken at every write would, with no CRC work
  on untouched pages.  A device whose bytes can change outside the write
  path (a file, real media) must checksum at write time instead.
  Phantom pages store no bytes and therefore carry no checksum;
  phantom-mode experiment runs are unaffected.
* **Fault interception.**  A :class:`FaultSite` (implemented by
  :class:`repro.faults.FaultInjector`) can be installed to inject
  deterministic crashes, transient read/write faults, and torn multi-page
  writes at this single choke point for all physical I/O.  Transient
  faults are retried under the disk's bounded
  :class:`~repro.disk.iomodel.RetryPolicy`, with each repeat charged as a
  real physical call and attributed to ``IOStats.retries``.  With no site
  installed, none of these paths run and the Section 4.1 cost model is
  bit-identical to a fault-free build.
"""

from __future__ import annotations

import functools
import zlib
from typing import Any, Callable, NamedTuple, Protocol, cast, overload

from repro.core.config import SystemConfig
from repro.core.errors import (
    AllocationError,
    ChecksumError,
    ContractViolationError,
    CrashError,
    InvalidArgumentError,
    IOFaultError,
)
from repro.core.payload import Payload, SizedPayload
from repro.disk.iomodel import DEFAULT_RETRY_POLICY, CostModel, RetryPolicy
from repro.lint.contracts import checks_enabled, pure_read
from repro.obs.tracer import Tracer


class FaultSite(Protocol):
    """Interception interface for injected faults at physical-I/O time.

    Defined here — at the interception point — so :mod:`repro.faults`
    depends on the disk, never the reverse.  Implementations may raise
    :class:`~repro.core.errors.CrashError` (the simulated machine dies) or
    :class:`~repro.core.errors.IOFaultError` (the device reports an error;
    transient ones are retried by the disk).  ``attempt`` counts retries
    of the same logical call, starting at 0.
    """

    def read_attempt(
        self, disk: "SimulatedDisk", start: int, n_pages: int, attempt: int
    ) -> None:
        """Called before a physical read; may raise to inject a fault."""

    def write_attempt(
        self,
        disk: "SimulatedDisk",
        start: int,
        n_pages: int,
        record: bool,
        attempt: int,
    ) -> int | None:
        """Called before a physical write; may raise to inject a fault.

        Returning an int ``k`` tears the write: only the first ``k`` pages
        of the run persist, then the disk raises :class:`CrashError`.
        Returning ``None`` lets the write proceed normally.
        """

    def after_write(
        self, disk: "SimulatedDisk", start: int, n_pages: int, record: bool
    ) -> None:
        """Called after a write persisted (e.g. to plant silent corruption)."""


class PendingImage(NamedTuple):
    """A page image built when the page is first read: ``build()``
    returns the whole page; ``expect``, set when the disk's checks are
    on, is what ``build()`` returned at the write."""

    build: Callable[[], bytes]
    expect: bytes | None


#: ``_new(PendingImage, (build, expect))`` skips the generated ``__new__``,
#: whose argument handling doubles the cost of a construction.
_new: Callable[..., Any] = tuple.__new__


#: Page-state bitmaps are one ``int`` per ``1 << _CHUNK_BITS`` page ids.
_CHUNK_BITS = 12
_CHUNK_PAGES = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_PAGES - 1


def _run_bits(bitmaps: dict[int, int], start: int, n_pages: int) -> int:
    """The run's slice of a chunked bitmap: bit ``i`` is page ``start + i``."""
    chunk = start >> _CHUNK_BITS
    offset = start & _CHUNK_MASK
    bits = bitmaps.get(chunk, 0) >> offset
    have = _CHUNK_PAGES - offset
    while have < n_pages:
        chunk += 1
        bits |= bitmaps.get(chunk, 0) << have
        have += _CHUNK_PAGES
    return bits & ((1 << n_pages) - 1)


def _mark_run(
    bitmaps: dict[int, int], start: int, n_pages: int, value: bool
) -> None:
    """Set (or clear) every page of the run in a chunked bitmap."""
    chunk = start >> _CHUNK_BITS
    offset = start & _CHUNK_MASK
    while n_pages > 0:
        span = min(n_pages, _CHUNK_PAGES - offset)
        run = ((1 << span) - 1) << offset
        bits = bitmaps.get(chunk, 0)
        # (x ^ (x & run) clears the run at a third of the cost of x & ~run.)
        bitmaps[chunk] = bits | run if value else bits ^ (bits & run)
        n_pages -= span
        chunk += 1
        offset = 0


class SimulatedDisk:
    """Page-addressed simulated storage device with I/O cost accounting."""

    def __init__(self, config: SystemConfig, cost_model: CostModel) -> None:
        self.config = config
        self.cost = cost_model
        #: ``REPRO_CHECKS=1`` as the disk was built: the runtime checks'
        #: one switch.  On, each pending image is built when written too.
        self.checks = checks_enabled()
        #: Recorded page images only; :attr:`_recorded` mirrors its keys.
        self._pages: dict[int, bytes | PendingImage] = {}
        #: Chunk -> bitmap of the pages that hold a recorded image (the
        #: keys of ``_pages``), so a run is tested for content in one
        #: mask operation per chunk instead of a probe per page.
        self._recorded: dict[int, int] = {}
        #: Chunk -> bitmap of the pages written in phantom (count-only)
        #: mode.  Disjoint from ``_recorded``: a page is never-written,
        #: phantom or recorded.
        self._phantom: dict[int, int] = {}
        #: Shared all-zero page returned for unwritten/phantom single pages.
        #: Safe to alias because page images are immutable ``bytes``.
        self._zero_page = bytes(config.page_size)
        #: Lazily grown zero buffer backing whole-run phantom reads; runs
        #: are served as zero-copy slices of one shared allocation.
        self._zero_buffer = self._zero_page
        #: Shared length-only page handed out for phantom pages by
        #: :meth:`read_page_views`; immutable, so aliasing is safe.
        self._zero_payload = SizedPayload(config.page_size)
        #: Page envelope: the CRC-32 of the intact image of every page
        #: :meth:`corrupt_page` changed since the page was last written.
        #: Only ``corrupt_page`` adds entries; a write, poke or discard of
        #: the page drops its entry.  Every other recorded page holds the
        #: image the write path stored, so its CRC cannot differ.
        self._checksums: dict[int, int] = {}
        #: Installed fault injector, if any (see :class:`FaultSite`).
        self._fault_site: FaultSite | None = None
        #: Latched by the first injected crash: the simulated machine is
        #: dead, and *nothing* reaches the device — not even unaccounted
        #: root pokes — until the image is reopened (the fault site is
        #: uninstalled).  Without the latch, ``finally:``-style cleanup
        #: in a dying operation would flush post-crash state into the
        #: image, which a real crash never persists.
        self._halted = False
        #: Bounded retry policy for transient injected faults.
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        #: While True, :meth:`discard_pages` keeps the bytes of freed
        #: pages (a real disk retains freed blocks until reuse; crash
        #: recovery reads them).  Set by armed fault injectors.
        self.retain_freed = False
        #: Bumped by every call that can change a page: what the
        #: ``@pure_read`` contract compares.
        self.page_changes = 0
        #: Installed tracer, if any (set by the owning environment).  The
        #: disk is the cost choke point, so the four ``io_event`` sites
        #: below attribute 100% of simulated cost; with no tracer each
        #: site costs one attribute load and an ``is not None`` check,
        #: mirroring the ``_fault_site`` guard.
        self.tracer: Tracer | None = None

    # ------------------------------------------------------------------
    # Accounted physical I/O
    # ------------------------------------------------------------------
    @overload
    def read_pages(self, start: int, n_pages: int) -> Payload: ...

    @overload
    def read_pages(self, start: int, n_pages: int,
                   build: bool) -> Payload | Callable[[], bytes]: ...

    def read_pages(self, start: int, n_pages: int,
                   build: bool = True) -> Payload | Callable[[], bytes]:
        """Read ``n_pages`` physically adjacent pages in one I/O call.

        Returns the concatenated page contents.  Pages that were written in
        phantom mode (or never written) read back as zeros.  A run that is
        *entirely* phantom is returned as a :class:`SizedPayload` — a
        length-only view of the zeros that costs no byte work at all —
        which is the normal case for the leaf area of experiment stores.
        With ``build=False`` a one-page read of a pending image is charged
        the same but returns a builder of its bytes instead (a
        :meth:`peek_pages` of it, which builds the image in place once).
        """
        self._check_range(start, n_pages)
        if self._fault_site is not None:
            self._attempt_read(start, n_pages)
        self.cost.charge_read(n_pages)
        if self.tracer is not None:
            self.tracer.io_event("disk.read", start, n_pages)
        run = (1 << n_pages) - 1
        offset = start & _CHUNK_MASK
        if offset + n_pages <= _CHUNK_PAGES:
            # One chunk, the common case: no helper call, no arithmetic
            # on a bitmap the chunk does not have (the leaf area of a
            # phantom store has no recorded pages, the meta area no
            # phantom ones), and the bits stay where they are in the
            # chunk — masking is cheaper than shifting 4,096 bits down.
            chunk = start >> _CHUNK_BITS
            run <<= offset
            bits = self._recorded.get(chunk)
            recorded = bits & run if bits else 0
            bits = self._phantom.get(chunk)
            phantom = bits & run if bits else 0
        else:
            offset = 0
            recorded = _run_bits(self._recorded, start, n_pages)
            phantom = _run_bits(self._phantom, start, n_pages)
        if not recorded:
            if phantom == run:
                return SizedPayload(n_pages * self.config.page_size)
            return self._zero_run(n_pages)
        if self._checksums:
            self._verify_checksum(start, n_pages)
        if n_pages == 1:  # one recorded page: as stored, or pending
            content = self._pages[start]
            if not isinstance(content, PendingImage):
                return content
            return self._built(start) if build else functools.partial(
                self.peek_pages, start, 1)
        get = self._pages.get
        zero = self._zero_page
        # A stored image is a whole page, never empty, so ``or`` only
        # stands in for the missing ones.
        try:
            return b"".join(cast("list[bytes]", [
                get(page) or zero for page in range(start, start + n_pages)
            ]))
        except TypeError:  # a pending image, which the join refuses
            return self._built_run(start, n_pages)

    def read_page_views(self, start: int, n_pages: int) -> list[Payload]:
        """Read a run in one I/O call, returned as one object per page.

        The zero-copy twin of :meth:`read_pages` for callers that want the
        run page by page (the buffer pool): recorded pages are returned as
        the exact stored page image, phantom pages as one shared
        length-only :class:`SizedPayload` page, and never-written pages as
        the shared zero page, so no slicing or zero-buffer materialization
        happens at all.  Charges the same cost as :meth:`read_pages`.
        """
        self._check_range(start, n_pages)
        if self._fault_site is not None:
            self._attempt_read(start, n_pages)
        self.cost.charge_read(n_pages)
        if self.tracer is not None:
            self.tracer.io_event("disk.read", start, n_pages)
        run = (1 << n_pages) - 1
        offset = start & _CHUNK_MASK
        if offset + n_pages <= _CHUNK_PAGES:
            # One chunk: inlined as in read_pages; bit ``offset + i`` of
            # ``phantom`` is page ``start + i``.
            chunk = start >> _CHUNK_BITS
            run <<= offset
            bits = self._recorded.get(chunk)
            recorded = bits & run if bits else 0
            bits = self._phantom.get(chunk)
            phantom = bits & run if bits else 0
        else:
            offset = 0
            recorded = _run_bits(self._recorded, start, n_pages)
            phantom = _run_bits(self._phantom, start, n_pages)
        if not recorded:
            if phantom == run:
                return [self._zero_payload] * n_pages
            if not phantom:
                return [self._zero_page] * n_pages
        elif self._checksums:
            self._verify_checksum(start, n_pages)
        get = self._pages.get
        zero = self._zero_page
        zero_payload = self._zero_payload
        views: list[Payload] = []
        for i in range(n_pages):
            content = get(start + i)
            if content is not None:
                if isinstance(content, PendingImage):
                    content = self._built(start + i)
                views.append(content)
            elif phantom >> (offset + i) & 1:
                views.append(zero_payload)
            else:
                views.append(zero)
        return views

    def write_pages(
        self,
        start: int,
        n_pages: int,
        data: Payload | list[Callable[[], bytes]],
        record: bool = True,
    ) -> None:
        """Write ``n_pages`` physically adjacent pages in one I/O call.

        ``data`` may be shorter than ``n_pages`` pages; the tail of the last
        page is zero-filled.  With ``record=False`` the content is discarded
        and only the cost is charged (phantom mode).  A
        :class:`SizedPayload` is all zeros by definition, so recording it
        stores the shared zero page for every page of the run — the stored
        images are bit-identical to writing materialized zeros.  A list of
        one builder per page is stored unbuilt, as :class:`PendingImage`
        slots, and charged the same; a list of any other length is
        refused, as an oversized buffer is, before anything is charged.
        """
        self._check_range(start, n_pages)
        page_size = self.config.page_size
        if isinstance(data, list):
            if len(data) != n_pages:
                raise AllocationError(
                    f"writing {len(data)} page builders into {n_pages} pages"
                )
        elif len(data) > n_pages * page_size:
            raise AllocationError(
                f"writing {len(data)} bytes into {n_pages} pages of "
                f"{page_size} bytes each"
            )
        self.page_changes += 1
        site = self._fault_site
        tear_at: int | None = None
        if site is not None:
            tear_at = self._attempt_write(site, start, n_pages, record)
        self.cost.charge_write(n_pages)
        if self.tracer is not None:
            self.tracer.io_event("disk.write", start, n_pages)
        if tear_at is not None:
            # Torn multi-page write: the device persisted only a prefix of
            # the run before the simulated machine died mid-transfer.
            self._store_run(start, n_pages, data, record, limit=tear_at)
            self._halted = True
            if self.tracer is not None:
                self.tracer.event(
                    "disk.torn_write", start=start, pages=n_pages,
                    persisted=tear_at,
                )
            raise CrashError(
                f"torn write: only {tear_at} of {n_pages} pages at "
                f"{start} persisted"
            )
        self._store_run(start, n_pages, data, record)
        if site is not None:
            site.after_write(self, start, n_pages, record)

    def _store_run(
        self,
        start: int,
        n_pages: int,
        data: Payload | list[Callable[[], bytes]],
        record: bool,
        limit: int | None = None,
    ) -> None:
        """Persist (a prefix of) a page run; a rewritten page is intact, so
        any CRC :meth:`corrupt_page` recorded for it is dropped."""
        page_size = self.config.page_size
        stop = n_pages if limit is None else min(limit, n_pages)
        if not record:
            # One mask operation per chunk.  Recorded images under the run
            # (the meta area shares the disk, and tests mix the modes) are
            # found by the same kind of mask and dropped with their
            # checksums: a phantom page stores no bytes.
            offset = start & _CHUNK_MASK
            if offset + stop <= _CHUNK_PAGES:
                chunk = start >> _CHUNK_BITS
                run = ((1 << stop) - 1) << offset
                bits = self._recorded.get(chunk)
                if bits and bits & run:
                    self._recorded[chunk] = bits ^ (bits & run)
                    self._drop_images(start, stop)
                phantom = self._phantom
                phantom[chunk] = phantom.get(chunk, 0) | run
            else:
                if _run_bits(self._recorded, start, stop):
                    _mark_run(self._recorded, start, stop, False)
                    self._drop_images(start, stop)
                _mark_run(self._phantom, start, stop, True)
            return
        if self._checksums:
            self._drop_checksums(start, stop)
        pages = self._pages
        known = len(pages)
        if isinstance(data, SizedPayload):
            zero = self._zero_page
            for i in range(stop):
                pages[start + i] = zero
        elif stop == 1 and len(data) == page_size and type(data) is bytes:
            # One whole page that is already immutable (a records page)
            # is kept as it is.
            pages[start] = data
        elif isinstance(data, list):
            for i in range(stop):
                pages[start + i] = self._pending(data[i])
        else:
            # Store per-page images straight from the caller's buffer: one
            # copy per page instead of the old pad-whole-buffer-then-slice
            # (which copied the run twice before slicing it a third time).
            view = memoryview(data)
            data_len = len(data)
            for i in range(stop):
                lo = i * page_size
                if lo >= data_len:
                    image = self._zero_page
                elif lo + page_size <= data_len:
                    image = bytes(view[lo : lo + page_size])
                else:
                    image = bytes(view[lo:data_len]).ljust(
                        page_size, b"\x00"
                    )
                pages[start + i] = image
        if len(pages) != known:
            self._mark_recorded(start, stop)

    def _pending(self, build: Callable[[], bytes]) -> PendingImage:
        """The slot of a page written as ``build``, built now as well when
        :attr:`checks` is on, for every later build to match."""
        return _new(  # type: ignore[no-any-return]
            PendingImage, (build, build() if self.checks else None)
        )

    def _built(self, page_id: int) -> bytes:
        """A recorded page's bytes, building a pending image in place."""
        content = self._pages[page_id]
        if isinstance(content, PendingImage):
            image = content.build()
            if content.expect is not None and image != content.expect:
                raise ContractViolationError(
                    f"page {page_id}: the image built on read differs from "
                    "the one built when it was written"
                )
            content = self._pages[page_id] = image
        return content

    def _built_run(self, start: int, n_pages: int) -> bytes:
        """The run's bytes, zeros for pages with no recorded image."""
        zero = self._zero_page
        return b"".join([
            self._built(page_id) if page_id in self._pages else zero
            for page_id in range(start, start + n_pages)
        ])

    def _mark_recorded(self, start: int, n_pages: int) -> None:
        """Note that the run's pages now hold images in ``_pages``.

        Callers skip this when the write added no key to ``_pages``: every
        page was recorded already, so neither bitmap changes.
        """
        offset = start & _CHUNK_MASK
        if offset + n_pages <= _CHUNK_PAGES:
            chunk = start >> _CHUNK_BITS
            run = ((1 << n_pages) - 1) << offset
            self._recorded[chunk] = self._recorded.get(chunk, 0) | run
            bits = self._phantom.get(chunk)
            if bits:
                self._phantom[chunk] = bits ^ (bits & run)
        else:
            _mark_run(self._recorded, start, n_pages, True)
            _mark_run(self._phantom, start, n_pages, False)

    def _drop_images(self, start: int, n_pages: int) -> None:
        """Forget the images and checksums of the run's recorded pages
        (the caller clears them in ``_recorded``)."""
        pop_page = self._pages.pop
        for page_id in range(start, start + n_pages):
            pop_page(page_id, None)
        if self._checksums:
            self._drop_checksums(start, n_pages)

    def _drop_checksums(self, start: int, n_pages: int) -> None:
        """Forget the CRCs :meth:`corrupt_page` recorded inside the run."""
        checksums = self._checksums
        stop = start + n_pages
        for page_id in [p for p in checksums if start <= p < stop]:
            del checksums[page_id]

    # ------------------------------------------------------------------
    # Fault injection and checksum verification
    # ------------------------------------------------------------------
    def install_fault_site(self, site: FaultSite) -> None:
        """Install a fault injector on this disk's physical I/O paths.

        Only one site may be installed at a time; installing the same
        object twice is a no-op.
        """
        if self._fault_site is not None and self._fault_site is not site:
            raise InvalidArgumentError(
                "another fault site is already installed on this disk"
            )
        self._fault_site = site
        self._halted = False

    def clear_fault_site(self) -> None:
        """Remove any installed fault injector; always safe to call.

        This is the simulation's "reopen the disk image after the crash"
        step: it also clears the :attr:`halted` latch, so recovery code
        can read and write the surviving image normally.
        """
        self._fault_site = None
        self._halted = False

    @property
    def fault_site(self) -> FaultSite | None:
        """The installed fault injector, if any."""
        return self._fault_site

    @property
    def halted(self) -> bool:
        """True after an injected crash, until the image is reopened."""
        return self._halted

    def _check_halted(self) -> None:
        if self._halted:
            raise CrashError(
                "simulated machine halted by an injected crash; reopen "
                "the image (uninstall the fault site) to recover"
            )

    def _attempt_read(self, start: int, n_pages: int) -> None:
        """Consult the fault site, retrying transient faults boundedly."""
        site = self._fault_site
        if site is None:
            return
        self._check_halted()
        attempt = 0
        while True:
            try:
                site.read_attempt(self, start, n_pages, attempt)
                return
            except CrashError:
                self._halted = True
                raise
            except IOFaultError as exc:
                attempt += 1
                if not exc.transient or attempt >= self.retry_policy.max_attempts:
                    raise
                self.cost.charge_retry_read(n_pages)
                if self.tracer is not None:
                    self.tracer.io_event("disk.retry.read", start, n_pages)

    def _attempt_write(
        self, site: FaultSite, start: int, n_pages: int, record: bool
    ) -> int | None:
        """Consult the fault site before a write; returns a tear prefix."""
        self._check_halted()
        attempt = 0
        while True:
            try:
                return site.write_attempt(self, start, n_pages, record, attempt)
            except CrashError:
                self._halted = True
                raise
            except IOFaultError as exc:
                attempt += 1
                if not exc.transient or attempt >= self.retry_policy.max_attempts:
                    raise
                self.cost.charge_retry_write(n_pages)
                if self.tracer is not None:
                    self.tracer.io_event("disk.retry.write", start, n_pages)

    def _verify_checksum(self, start: int, n_pages: int) -> None:
        """Raise :class:`ChecksumError` for the run's first page whose
        image no longer matches the CRC :meth:`corrupt_page` recorded."""
        stop = start + n_pages
        for page_id, expected in sorted(self._checksums.items()):
            if not start <= page_id < stop:
                continue
            if zlib.crc32(self._built(page_id)) != expected:
                if self.tracer is not None:
                    self.tracer.event("disk.checksum_fail", page=page_id)
                raise ChecksumError(page_id)

    def corrupt_page(self, page_id: int, bit_index: int) -> None:
        """Flip one bit of a recorded page *without* updating its checksum.

        This is the silent-corruption primitive used by
        :class:`repro.faults.FaultInjector` (and tests): the stored image
        changes but the envelope checksum does not, so the next accounted
        read raises :class:`~repro.core.errors.ChecksumError` and
        :meth:`verify_checksums` localizes the page.  The checksum is the
        CRC of the image as last written, taken here before the first
        flip since that write (later flips keep it: flipping one bit
        back restores a page that verifies).
        """
        if page_id not in self._pages:
            raise InvalidArgumentError(
                f"page {page_id} has no recorded content to corrupt"
            )
        self.page_changes += 1
        content = self._built(page_id)
        self._checksums.setdefault(page_id, zlib.crc32(content))
        byte_index, bit = divmod(bit_index % (len(content) * 8), 8)
        corrupted = bytearray(content)
        corrupted[byte_index] ^= 1 << bit
        self._pages[page_id] = bytes(corrupted)

    @pure_read
    def verify_checksums(self) -> list[int]:
        """Page ids whose stored content fails verification (no I/O cost).

        The whole-disk scan behind ``repro-experiments fsck``.  Only a
        page :meth:`corrupt_page` touched since its last write can fail,
        so only those are checked; phantom and never-written pages have
        no checksum at all.
        """
        return sorted(
            page_id
            for page_id, expected in self._checksums.items()
            if zlib.crc32(self._built(page_id)) != expected
        )

    # ------------------------------------------------------------------
    # Unaccounted access (verification / in-memory bookkeeping only)
    # ------------------------------------------------------------------
    @pure_read
    def peek_pages(self, start: int, n_pages: int) -> bytes:
        """Return page contents without charging any I/O cost.

        A range with no recorded image (unwritten or phantom) is served
        from one shared zero buffer instead of being rebuilt per call.
        """
        self._check_range(start, n_pages)
        if not _run_bits(self._recorded, start, n_pages):
            return self._zero_run(n_pages)
        return self._built_run(start, n_pages)

    def _zero_run(self, n_pages: int) -> bytes:
        """A shared immutable all-zero buffer of ``n_pages`` pages."""
        needed = n_pages * self.config.page_size
        if len(self._zero_buffer) < needed:
            self._zero_buffer = bytes(needed)
        if len(self._zero_buffer) == needed:
            return self._zero_buffer
        return self._zero_buffer[:needed]

    def poke_pages(self, start: int, data: bytes) -> None:
        """Overwrite page contents without charging any I/O cost.

        Only tests call it, to set up scenarios (every commit point goes
        through :meth:`defer_image`); it stays because the host-time
        benchmark (``perfbench``) wraps it by name.  A halted disk
        refuses pokes like any other write: the commit-point image
        update must not survive a crash that interrupted the operation
        before it.
        """
        self._check_halted()
        page_size = self.config.page_size
        n_pages = -(-len(data) // page_size)
        self._check_range(start, n_pages)
        self.page_changes += 1
        if self._checksums:
            self._drop_checksums(start, n_pages)
        padded = bytes(data).ljust(n_pages * page_size, b"\x00")
        known = len(self._pages)
        for i in range(n_pages):
            self._pages[start + i] = padded[i * page_size : (i + 1) * page_size]
        if len(self._pages) != known:
            self._mark_recorded(start, n_pages)

    def defer_image(self, page_id: int, build: Callable[[], bytes]) -> None:
        """:meth:`poke_pages` of one page, with ``build()`` as its image.

        The first read, peek, :meth:`image` or :meth:`corrupt_page` of
        the page runs ``build`` and stores the bytes in place; a poke,
        write or discard before then drops the :class:`PendingImage`
        unbuilt.  With :attr:`checks` on, ``build`` also runs now, and
        the read's build must reproduce those bytes.
        """
        self._check_halted()
        self._check_range(page_id, 1)
        self.page_changes += 1
        if self._checksums:
            self._checksums.pop(page_id, None)
        pages = self._pages
        known = len(pages)
        pages[page_id] = self._pending(build)
        if len(pages) != known:
            self._mark_recorded(page_id, 1)

    @pure_read
    def was_written(self, page_id: int) -> bool:
        """True if the page has ever been written (recorded or phantom)."""
        if page_id in self._pages:
            return True
        bits = self._phantom.get(page_id >> _CHUNK_BITS, 0)
        return bool(bits >> (page_id & _CHUNK_MASK) & 1)

    @pure_read
    def image(self) -> dict[int, bytes | None]:
        """The raw device image: every written page's recorded bytes, or
        ``None`` for a page written in phantom mode (no I/O cost)."""
        image: dict[int, bytes | None] = {
            page_id: self._built(page_id) for page_id in list(self._pages)
        }
        for chunk, bits in self._phantom.items():
            base = chunk << _CHUNK_BITS
            for offset, bit in enumerate(format(bits, "b")[::-1]):
                if bit == "1":
                    image[base + offset] = None
        return image

    def discard_pages(self, start: int, n_pages: int) -> None:
        """Forget page contents (called when space is freed).

        While :attr:`retain_freed` is set (a fault injector is armed), the
        bytes and checksums are kept: a real disk retains freed blocks'
        content until reuse, and crash recovery reads it.  Discarding is a
        memory-saving artifact of the simulation, not device behaviour.
        """
        self._check_range(start, n_pages)
        self._check_halted()
        self.page_changes += 1
        if self.retain_freed:
            return
        offset = start & _CHUNK_MASK
        if offset + n_pages <= _CHUNK_PAGES:
            chunk = start >> _CHUNK_BITS
            run = ((1 << n_pages) - 1) << offset
            bits = self._phantom.get(chunk)
            if bits:
                self._phantom[chunk] = bits ^ (bits & run)
            bits = self._recorded.get(chunk)
            if bits and bits & run:
                self._recorded[chunk] = bits ^ (bits & run)
                self._drop_images(start, n_pages)
        else:
            _mark_run(self._phantom, start, n_pages, False)
            if _run_bits(self._recorded, start, n_pages):
                _mark_run(self._recorded, start, n_pages, False)
                self._drop_images(start, n_pages)

    @property
    def pages_in_use(self) -> int:
        """Number of distinct pages ever written and not discarded."""
        return len(self._pages) + sum(
            bits.bit_count() for bits in self._phantom.values()
        )

    @staticmethod
    def _check_range(start: int, n_pages: int) -> None:
        if start < 0:
            raise AllocationError(f"negative page id {start}")
        if n_pages <= 0:
            raise AllocationError(f"page count must be positive, got {n_pages}")


def contiguous_runs(page_ids: list[int]) -> list[tuple[int, int]]:
    """Group a sorted list of page ids into (start, length) runs."""
    runs: list[tuple[int, int]] = []
    for page in page_ids:
        if runs and runs[-1][0] + runs[-1][1] == page:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs
