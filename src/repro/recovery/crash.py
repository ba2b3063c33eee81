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
simulation).  The ``rebuild_*`` functions then reconstruct an object's
content purely from serialized disk images — the recovery path.
"""

from __future__ import annotations

from repro.blockbased.manager import BlockBasedManager
from repro.buddy.area import DATA_AREA_BASE, META_AREA_BASE
from repro.core.env import StorageEnvironment
from repro.core.errors import CrashError, InvalidArgumentError
from repro.starburst.descriptor import LongFieldDescriptor
from repro.tree.node import IndexNode

__all__ = [
    "CrashError",
    "rebuild_blockbased_content",
    "rebuild_content",
    "rebuild_starburst_content",
    "rebuild_tree_content",
]


# ----------------------------------------------------------------------
# Recovery: rebuild object content purely from disk images
# ----------------------------------------------------------------------
def rebuild_tree_content(
    env: StorageEnvironment,
    root_page_id: int,
    leaf_alloc_pages,
    runs: list[tuple[int, int]] | None = None,
) -> bytes:
    """Reconstruct an ESM/EOS object from its on-disk tree image.

    When ``runs`` is given, every page run the image references —
    index pages and leaf extents alike — is appended to it as a
    ``(first page id, page count)`` pair, for structural verification
    of the image (see :meth:`repro.recovery.sweep.SingleOp.judge`).
    """
    pieces: list[bytes] = []
    _walk_node(env, root_page_id, True, leaf_alloc_pages, pieces, runs)
    return b"".join(pieces)


def _walk_node(env, page_id, is_root, leaf_alloc_pages, pieces, runs) -> None:
    image = env.disk.peek_pages(page_id, 1)
    node, _total, _rightmost = IndexNode.deserialize(
        image,
        page_id,
        is_root=is_root,
        data_base=DATA_AREA_BASE,
        meta_base=META_AREA_BASE,
        leaf_alloc_pages=leaf_alloc_pages,
    )
    if runs is not None:
        runs.append((page_id, 1))
    if node.is_leaf_parent:
        for extent in node.extents():
            used = extent.used_pages(env.config.page_size)
            raw = env.disk.peek_pages(extent.page_id, used)
            pieces.append(raw[: extent.used_bytes])
            if runs is not None:
                runs.append((extent.page_id, used))
    else:
        for child in node.refs:
            _walk_node(env, child, False, leaf_alloc_pages, pieces, runs)


def rebuild_starburst_content(
    env: StorageEnvironment,
    descriptor_page: int,
    runs: list[tuple[int, int]] | None = None,
) -> bytes:
    """Reconstruct a long field from its on-disk descriptor image."""
    image = env.disk.peek_pages(descriptor_page, 1)
    descriptor = LongFieldDescriptor.deserialize(
        image, descriptor_page, env.config, DATA_AREA_BASE
    )
    if runs is not None:
        runs.append((descriptor_page, 1))
    pieces = []
    for segment in descriptor.segments:
        used = segment.used_pages(env.config.page_size)
        raw = env.disk.peek_pages(segment.page_id, used)
        pieces.append(raw[: segment.used_bytes])
        if runs is not None:
            runs.append((segment.page_id, used))
    return b"".join(pieces)


def rebuild_blockbased_content(
    env: StorageEnvironment,
    directory_page: int,
    runs: list[tuple[int, int]] | None = None,
) -> bytes:
    """Reconstruct a block-based object from its directory chain."""
    pieces = []
    for page in BlockBasedManager.load_directory_chain(env, directory_page):
        raw = env.disk.peek_pages(page.page_id, 1)
        pieces.append(raw[: page.used_bytes])
        if runs is not None:
            runs.append((page.page_id, 1))
    return b"".join(pieces)


def rebuild_content(
    store, oid: int, runs: list[tuple[int, int]] | None = None
) -> bytes:
    """Reconstruct any scheme's object content from disk images only."""
    scheme = store.scheme
    if scheme in ("esm", "eos"):
        return rebuild_tree_content(
            store.env, oid, store.manager._leaf_alloc_pages, runs
        )
    if scheme == "starburst":
        return rebuild_starburst_content(store.env, oid, runs)
    if scheme == "blockbased":
        return rebuild_blockbased_content(store.env, oid, runs)
    raise InvalidArgumentError(f"unknown scheme {scheme!r}")
