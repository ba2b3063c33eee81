"""Crash injection and shadow recovery verification (Section 3.3).

The paper's mechanisms all assume shadowing: "a page is never
overwritten; instead, a write is performed by allocating and writing a
new page and leaving the old one intact until it is no longer needed for
recovery".  The study itself does not run transactions, but the property
shadowing buys is testable: *if a crash interrupts an operation at any
point before the root/descriptor write (the commit point), the object's
previous state is fully reconstructible from the disk image*.

:class:`~repro.faults.FaultInjector` armed with
``FaultPlan(crash_writes=at(n + 1))`` lets ``n`` physical writes land and
raises :class:`CrashError` on the next, leaving the disk torn.  While
armed, frees do not discard page content (a real disk keeps the bytes of
freed blocks; discarding them is a memory-saving artifact of the
simulation).  :func:`rebuild_content` then reconstructs an object's
content purely from its manager's ``image_extents`` — the recovery path.
"""

from __future__ import annotations

from repro.core.errors import CrashError

__all__ = ["CrashError", "rebuild_content"]


def rebuild_content(
    store, oid: int, runs: list[tuple[int, int]] | None = None
) -> bytes:
    """Reconstruct any scheme's object content from disk images only.

    When ``runs`` is given, every page run the image references — meta
    pages and the used pages of data runs alike — is appended to it as a
    ``(first page id, page count)`` pair, for structural verification of
    the image (see :meth:`repro.recovery.sweep.SingleOp.judge`).
    """
    page_size = store.config.page_size
    disk = store.env.disk
    pieces = []
    for extent in store.manager.image_extents(oid):
        used = -(-extent.used_bytes // page_size)
        if runs is not None:
            runs.append((extent.page_id, used))
        if not extent.meta:
            raw = disk.peek_pages(extent.page_id, used)
            pieces.append(raw[: extent.used_bytes])
    return b"".join(pieces)
