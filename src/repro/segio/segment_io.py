"""Reads and writes on multi-block segments (Sections 3.2 and 3.3).

The buffering scheme is the paper's hybrid approach:

* A requested page run short enough to be buffered (at most
  ``max_buffered_segment_pages`` pages) is read *in a single step* into the
  buffer pool, provided the pool can make room for it.
* Longer runs bypass the pool and are read "directly into the application
  space".  If the requested byte range does not match block boundaries
  (Figure 4), the single request becomes the 3-step I/O: the first and/or
  last block is read through the buffer pool and copied from there, and the
  interior blocks are read directly with one I/O call.

Writes always go straight to disk (the managers flush dirty pages at the
end of each operation, per the shadowing discussion of Section 3.3); any
resident copies of written pages are refreshed so the pool never holds
stale leaf data.  The one exception is a *fresh* segment filled by
:meth:`SegmentIO.copy_staged`.  A freed run is invalidated before its
pages can be reallocated (a deferred free keeps them allocated until the
batch ends), and nothing reads a fresh page before the copy writes it but
the copy's own mid-page read-back; so no other page of it can be
resident, and those writes skip the refresh and go to the disk.

A byte-range read is one frame here: a run short enough to buffer is
one :meth:`~repro.buffer.pool.BufferPool.read_run` and a slice of it.
Only the 3-step read has two halves: :meth:`SegmentIO._read_covering`
makes its pool and disk calls and :meth:`SegmentIO._assembled` slices
and joins the pages it charged.  The staged copy reads each source piece
of a chunk the same way.

A phantom store (``record_leaf_data=False``, Section 4.1) makes the
same pool and disk calls in the same order, but carries lengths, not
bytes: its leaf pages read as zeros, so a read returns a
:class:`~repro.core.payload.SizedPayload` without slicing or joining what
it charged, a staged copy assembles nothing at all, and a write hands on
a length.
"""

from __future__ import annotations

from typing import Sequence

from repro.buffer.pool import BufferPool
from repro.core.config import SystemConfig
from repro.core.errors import ByteRangeError, ContractViolationError
from repro.core.payload import Payload, SizedPayload, payload_concat

#: The runs a 3-step read charged: the head page, the middle run and the
#: tail page (each None when not read).
_Runs = tuple[Payload | None, Payload | None, Payload | None]


class SegmentIO:
    """Policy layer translating byte-range requests into physical I/O."""

    def __init__(
        self,
        config: SystemConfig,
        pool: BufferPool,
        record_leaf_data: bool = True,
    ) -> None:
        """Section 3.2's never-buffer and always-buffer extremes are
        configurations: ``max_buffered_segment_pages`` of 0 and of
        ``buffer_pool_pages``."""
        self.config = config
        self.pool = pool
        self.record_leaf_data = record_leaf_data

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_range(self, segment_page: int, byte_off: int,
                   nbytes: int) -> Payload:
        """Read ``nbytes`` bytes starting ``byte_off`` bytes into a segment.

        Only the pages containing the requested bytes are read (the unit of
        I/O is a single disk page, Section 3.3).  Returns exactly the
        requested bytes.
        """
        if nbytes < 0 or byte_off < 0:
            raise ByteRangeError("negative byte range")
        if nbytes == 0:
            return b""
        page_size = self.config.page_size
        first = byte_off // page_size
        last = (byte_off + nbytes - 1) // page_size
        data = self.read_pages(segment_page + first, last - first + 1)
        start = byte_off - first * page_size
        return data[start : start + nbytes]

    def read_pages(self, start_page: int, n_pages: int) -> Payload:
        """Read a run of physically adjacent pages under the hybrid policy.

        Phantom runs come back as a length-only
        :class:`~repro.core.payload.SizedPayload` (all zeros, no byte
        work); recorded runs come back as real ``bytes``.
        """
        buffered = self._should_buffer(n_pages)
        tracer = self.pool.disk.tracer
        if tracer is None:
            return self._read_pages(start_page, n_pages, buffered)
        with tracer.span(
            "segio.read", start=start_page, pages_n=n_pages, buffered=buffered
        ):
            return self._read_pages(start_page, n_pages, buffered)

    def _read_pages(self, start_page: int, n_pages: int,
                    buffered: bool) -> Payload:
        """The one body of :meth:`read_pages`, traced or not."""
        pool = self.pool
        if buffered:
            return pool.read_run(start_page, n_pages,
                                 record=self.record_leaf_data)
        # Large run: bypass the pool.  Boundary blocks that are already
        # resident are taken from the pool; the interior is one direct
        # I/O.
        first_cached = pool.resident_image(start_page)
        last_cached = (
            pool.resident_image(start_page + n_pages - 1)
            if n_pages > 1
            else None
        )
        first = start_page + (first_cached is not None)
        n_middle = start_page + n_pages - (last_cached is not None) - first
        middle = pool.disk.read_pages(first, n_middle) if n_middle else None
        if not self.record_leaf_data:
            if pool.checks:
                _check_phantom(first_cached, middle, last_cached)
            return SizedPayload(n_pages * self.config.page_size)
        return _joined(first_cached, middle, last_cached)

    def read_boundary_unaligned(
        self, segment_page: int, byte_off: int, nbytes: int
    ) -> Payload:
        """Read a byte range with the explicit 3-step boundary treatment.

        Like :meth:`read_range`, but when the run is too large to buffer
        *and* the byte range does not match block boundaries, the first
        and/or last block goes through the buffer pool (and stays cached)
        while the interior is read directly — the 3-step I/O of Figure 4.
        A run short enough to buffer is one
        :meth:`~repro.buffer.pool.BufferPool.read_run`, sliced here (a
        phantom store's length alone).  Traced, the I/O is one
        ``segio.read_unaligned`` span.
        """
        if nbytes < 0 or byte_off < 0:
            raise ByteRangeError("negative byte range")
        if nbytes == 0:
            return b""
        page_size = self.config.page_size
        first = byte_off // page_size
        n_pages = (byte_off + nbytes - 1) // page_size - first + 1
        start = byte_off - first * page_size
        segment_page += first
        pool = self.pool
        record = self.record_leaf_data
        tracer = pool.disk.tracer
        # _should_buffer, inlined: this is every charged read's path.
        if (n_pages <= self.config.max_buffered_segment_pages
                and n_pages <= pool.capacity and n_pages <= pool.headroom):
            if tracer is None:
                run = pool.read_run(segment_page, n_pages, record=record)
            else:
                with tracer.span("segio.read_unaligned", start=segment_page,
                                 pages_n=n_pages, buffered=True):
                    run = pool.read_run(segment_page, n_pages, record=record)
            if not record:
                # (A run of 2+ pages is a length the pool checked.)
                if pool.checks and type(run) is not SizedPayload:
                    _check_phantom(run)
                return SizedPayload(nbytes)
            # A page-aligned whole-run request needs no slice at all.
            if start == 0 and nbytes == len(run):
                return run
            return run[start : start + nbytes]
        if tracer is None:
            runs = self._read_covering(segment_page, n_pages, start, nbytes)
        else:
            with tracer.span("segio.read_unaligned", start=segment_page,
                             pages_n=n_pages, buffered=False):
                runs = self._read_covering(
                    segment_page, n_pages, start, nbytes
                )
        if not record:
            if pool.checks:
                _check_phantom(*runs)
            return SizedPayload(nbytes)
        return self._assembled(runs, start, nbytes)

    def _read_covering(self, start_page: int, n_pages: int, start: int,
                       nbytes: int) -> _Runs:
        """The I/O of the 3-step read: the pool and disk calls that cover
        ``nbytes`` bytes from ``start`` bytes into ``start_page``, a run
        too long to buffer.  Returns the ``(head, middle, tail)`` pages it
        charged."""
        # A page the range cuts goes through the pool, the pages between
        # the cuts are one direct read.  ``tail`` is what the range uses
        # of its last page; a single page cut at both ends is the head.
        tail = (start + nbytes) % self.config.page_size
        first = start_page + (start > 0)
        n_middle = start_page + n_pages - first
        cut_tail = tail > 0 and n_middle > 0
        n_middle -= cut_tail
        head = self._boundary_page(start_page) if start else None
        middle = (
            self.pool.disk.read_pages(first, n_middle) if n_middle else None
        )
        last = self._boundary_page(first + n_middle) if cut_tail else None
        return head, middle, last

    def _assembled(self, runs: _Runs, start: int, nbytes: int) -> Payload:
        """The ``nbytes`` bytes from ``start`` bytes into the runs
        :meth:`_read_covering` charged, sliced and joined."""
        head, middle, last = runs
        # Each boundary page is sliced to its bytes before the one join.
        tail = (start + nbytes) % self.config.page_size
        return _joined(head and head[start : start + nbytes], middle,
                       last and last[:tail])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_pages(self, start_page: int, data: Payload,
                    n_pages: int | None = None) -> None:
        """Write page-aligned data to a run of adjacent pages in one I/O.

        ``data`` may end mid-page; the tail of the last page is zero
        filled.  Resident pool copies are refreshed (clean) so subsequent
        buffered reads see the new content (zeros, in a phantom store).
        The body is the one :meth:`~repro.buffer.pool.BufferPool.write_run`
        call, traced or not.
        """
        if n_pages is None:
            n_pages = -(-len(data) // self.config.page_size)
        if not self.record_leaf_data and type(data) is not SizedPayload:
            data = SizedPayload(len(data))  # a resident copy keeps no bytes
        pool = self.pool
        tracer = pool.disk.tracer
        if tracer is None:
            pool.write_run(
                start_page, n_pages, data, record=self.record_leaf_data
            )
            return
        with tracer.span("segio.write", start=start_page, pages_n=n_pages):
            pool.write_run(
                start_page, n_pages, data, record=self.record_leaf_data
            )

    def copy_staged(self, sources: Sequence[tuple[int, int, int] | Payload],
                    memory: int, sinks: Sequence[tuple[int, int]]) -> None:
        """Stream the concatenated ``sources`` into ``sinks`` through a
        staging buffer of ``memory`` bytes (Section 3.5).

        A source piece is bytes in memory or ``(page_id, byte_off,
        nbytes)``, a non-empty range of one segment; a sink is ``(page_id,
        nbytes)``, a segment this operation allocated, filled from its
        first byte.  Each chunk is read whole, one 3-step read per piece
        it overlaps (the field "can not be copied in two steps", Section
        4.4.3), then written whole, one write per sink it reaches —
        preceded, when the sink cursor stands mid-page, by a read-back of
        that page.  Only a read-back page can be resident, so every other
        write goes straight to the disk.

        Each read is one :meth:`read_boundary_unaligned`.  A recorded
        store joins what they return into the chunk; a phantom store
        keeps only lengths, and each write's data is a length.
        """
        page_size = self.config.page_size
        pool = self.pool
        disk = pool.disk
        tracer = disk.tracer
        record = self.record_leaf_data
        checked = disk.checks
        read = self.read_boundary_unaligned
        parts: list[Payload] = []
        remaining = sum(nbytes for _page, nbytes in sinks)
        piece_index = piece_done = sink_index = written = 0
        while remaining:
            size = min(memory, remaining)
            remaining -= size
            need = size
            while need:
                piece = sources[piece_index]
                if isinstance(piece, tuple):
                    page_id, byte_off, length = piece
                    take = min(length - piece_done, need)
                    got = read(page_id, byte_off + piece_done, take)
                    if record:
                        parts.append(got)
                else:
                    length = len(piece)
                    take = min(length - piece_done, need)
                    if record:
                        parts.append(piece[piece_done : piece_done + take])
                need -= take
                piece_done += take
                if piece_done == length:
                    piece_index += 1
                    piece_done = 0
            chunk = _joined(*parts) if record else None
            parts.clear()
            done = 0
            while done < size:
                page_id, nbytes = sinks[sink_index]
                take = min(nbytes - written, size - done)
                first = written // page_size
                within = written - first * page_size
                if chunk is None:
                    data: Payload = SizedPayload(take)
                else:
                    data = chunk if take == size else chunk[done : done + take]
                page_id += first
                if within:
                    page = self.read_pages(page_id, 1)
                    self.write_pages(
                        page_id, payload_concat([page[:within], data])
                    )
                else:
                    n_pages = -(-take // page_size)
                    if checked and pool.resident_in(page_id, n_pages):
                        raise ContractViolationError(
                            f"fresh page run {page_id}+{n_pages} is resident"
                        )
                    if tracer is None:
                        disk.write_pages(page_id, n_pages, data, record)
                    else:
                        with tracer.span(
                            "segio.write", start=page_id, pages_n=n_pages
                        ):
                            disk.write_pages(page_id, n_pages, data, record)
                done += take
                written += take
                if written == nbytes:
                    sink_index += 1
                    written = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _should_buffer(self, n_pages: int) -> bool:
        """Section 3.2's buffer-availability test (after Effelsberg &
        Haerder): the run is small enough to buffer, fits the pool, and
        enough unpinned frames exist to make room.  Inlined in
        :meth:`read_boundary_unaligned`, every charged read's path."""
        pool = self.pool
        return (
            n_pages <= self.config.max_buffered_segment_pages
            and n_pages <= pool.capacity
            and n_pages <= pool.headroom
        )

    def _boundary_page(self, page_id: int) -> Payload:
        """One boundary block of the 3-step read, through the pool when
        possible: copied out of its frame if resident (recency
        unchanged), else brought in if a frame can be had, else read
        around the pool and counted as the miss it is."""
        pool = self.pool
        page = pool.resident_image(page_id)
        if page is not None:
            return page
        if self._should_buffer(1):
            return pool.read_run(page_id, 1, record=self.record_leaf_data)
        pool.stats.misses += 1
        return pool.disk.read_pages(page_id, 1)


def _check_phantom(*runs: Payload | None) -> None:
    """The premise of a phantom read, under ``REPRO_CHECKS=1``: it returns
    its length alone, not the runs it charged, because every leaf page of
    the store is phantom or never written, so each run reads as zeros."""
    if any(run is not None and run != bytes(len(run)) for run in runs):
        raise ContractViolationError(
            "a phantom read charged a run holding recorded bytes"
        )


def _joined(*runs: Payload | None) -> Payload:
    """The runs that are not None, concatenated."""
    chunks = [run for run in runs if run is not None]
    return chunks[0] if len(chunks) == 1 else payload_concat(chunks)

