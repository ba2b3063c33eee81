"""Index nodes and leaf extents of the positional count tree (Section 2.1).

Each node holds a sequence of (count, pointer) pairs.  The counts are
cumulative, exactly as in the paper's Figure 1, on disk and in memory
alike: an :class:`IndexNode` is parallel lists, ``cums`` and ``refs``
(and at level 1 ``allocs``), and the per-child byte counts are
differences of neighbouring ``cums``.  A pair occupies 8 bytes (4-byte
count + 4-byte pointer), so a 4 KB root holds up to 507 pairs and a 4 KB
internal page holds 511 (Section 4.1).

Level-1 nodes (the lowest index level) point at *leaf extents* — the data
segments themselves.  Higher levels point at child index pages.
"""

from __future__ import annotations

import functools
import struct
import sys
from array import array
from typing import Callable, NamedTuple

from repro.core.config import SystemConfig
from repro.core.errors import (
    ConfigurationError,
    InvalidArgumentError,
    StorageCorruptionError,
)

_NODE_HEADER = struct.Struct("<2sBBHH")  # magic, level, flags, n_entries, pad
_ROOT_HEADER = struct.Struct("<2sBBHHQIQQI")  # + total_bytes, rightmost_alloc, rsvd
_PAIR_BYTES = 8  # 4-byte cumulative count + 4-byte pointer

_NODE_MAGIC = b"IN"
_ROOT_MAGIC = b"RT"

#: Largest byte count a pair can hold, hence the largest object.
MAX_OBJECT_BYTES = 2**32 - 1

# A run of pairs is packed by ``array("I", ...)``: C speed, no argument
# per pair.  Its item is the platform's unsigned int.
if array("I").itemsize != 4:  # pragma: no cover - no supported platform
    raise ConfigurationError("index pages need a 4-byte array('I') item")
_BIG_ENDIAN = sys.byteorder != "little"


class LeafExtent(NamedTuple):
    """One data segment referenced by a level-1 index node: a value.

    A node stores no extent objects, only its columns; extents are
    minted from them by :meth:`IndexNode.extent` and handed to the node
    by :meth:`IndexNode.splice`.  Being immutable, an extent taken from
    the tree can go stale but can never be mistaken for a handle that
    writes through.

    Attributes
    ----------
    page_id:
        Global page id of the segment's first page.
    used_bytes:
        Bytes of the object stored in this segment (the pair's count).
    alloc_pages:
        Pages currently allocated to the segment.  For ESM this is the
        fixed leaf size; for EOS it equals ``ceil(used_bytes / page_size)``
        except possibly for the rightmost segment, which may carry
        untrimmed append slack.
    """

    page_id: int
    used_bytes: int
    alloc_pages: int

    def used_pages(self, page_size: int) -> int:
        """Pages of the segment that contain useful bytes."""
        return -(-self.used_bytes // page_size)


class IndexNode:
    """One index page of the positional tree.

    The node *is* its parallel lists and is the only code that changes
    them: every mutator below keeps the prefix sums in ``cums`` current,
    so callers read the columns freely but never assign to or mutate
    them.

    A level-1 node holds what its page holds: ``refs`` are the 4-byte
    segment pointers as they go to disk (``page_id - data_base``), so a
    flush copies the column without reading each pair.  Internal levels
    keep absolute child page ids: a descent reads one child per level
    where a build reads every pointer, and their nodes hold few pairs.
    """

    def __init__(
        self, page_id: int, level: int, data_base: int, meta_base: int
    ) -> None:
        if level < 1:
            raise InvalidArgumentError("index node level starts at 1")
        self.page_id = page_id
        #: Changes only while the node is empty (root split and collapse).
        self.level = level
        #: The owning tree's pointer bases (first page of the leaf area
        #: and of the index area).
        self.data_base = data_base
        self.meta_base = meta_base
        #: ``cums[i]`` is the byte count under children ``0..i``: the
        #: on-disk form of the counts and the bisect key of every descent.
        self.cums: list[int] = []
        #: At level 1 the segment pointers relative to ``data_base``;
        #: above it the child index page ids.
        self.refs: list[int] = []
        #: Pages allocated to each segment (level 1; empty above it).
        #: Not on the page: :meth:`deserialize` recomputes it.
        self.allocs: list[int] = []
        #: Set while the node has unflushed changes in the current operation.
        self.dirty = False
        #: Set once the node has been relocated (shadowed) in the current op.
        self.shadowed_this_op = False

    @property
    def is_leaf_parent(self) -> bool:
        """True if this node's pairs reference data segments."""
        return self.level == 1

    @property
    def total_bytes(self) -> int:
        """Bytes stored in the subtree rooted at this node."""
        return self.cums[-1] if self.cums else 0

    def count(self, index: int) -> int:
        """Bytes under child ``index`` alone."""
        cums = self.cums
        return cums[index] - cums[index - 1] if index else cums[0]

    def counts(self) -> list[int]:
        """Per-child byte counts, in order."""
        cums = self.cums
        return [after - before for before, after in zip([0] + cums, cums)]

    def extent(self, index: int) -> LeafExtent:
        """The segment pair ``index`` of a level-1 node references, as
        a value that later changes to the node do not reach."""
        cums = self.cums
        # (tuple.__new__ directly: half the cost of the generated
        # keyword-accepting __new__, on every descent.)
        return tuple.__new__(LeafExtent, (
            self.data_base + self.refs[index],
            cums[index] - cums[index - 1] if index else cums[0],
            self.allocs[index],
        ))

    def extents(self) -> list[LeafExtent]:
        """Every segment a level-1 node references, in order."""
        return [self.extent(index) for index in range(len(self.cums))]

    # ------------------------------------------------------------------
    # Mutators: the only code that changes cums / refs / allocs
    # ------------------------------------------------------------------
    def insert(self, index: int, count: int, ref: int, alloc: int = 0) -> None:
        """Insert a pair of ``count`` bytes before position ``index``.

        ``ref`` (and at level 1 ``alloc``) are cells as the columns hold
        them — what :meth:`pop` returned.
        """
        cums = self.cums
        before = cums[index - 1] if index else 0
        cums[index:] = [before + count] + [c + count for c in cums[index:]]
        self.refs.insert(index, ref)
        if self.level == 1:
            self.allocs.insert(index, alloc)

    def pop(self, index: int) -> tuple[int, int, int]:
        """Remove pair ``index``; returns its (count, ref, alloc) cells
        (``alloc`` is 0 above level 1)."""
        count = self.count(index)
        self.cums[index:] = [c - count for c in self.cums[index + 1:]]
        alloc = self.allocs.pop(index) if self.level == 1 else 0
        return count, self.refs.pop(index), alloc

    def splice(
        self, index: int, n_remove: int, extents: "list[LeafExtent]"
    ) -> int:
        """Replace the ``n_remove`` pairs from ``index`` of a level-1 node
        by one pair per extent; returns the change in the node's bytes.

        One pass whatever the number of pairs: the new prefix sums, the
        suffix shifted once by the net change, one slice per column.
        """
        cums = self.cums
        stop = index + n_remove
        total = cums[index - 1] if index else 0
        base = self.data_base
        new = []
        pointers = []
        allocs = []
        for page_id, used_bytes, alloc_pages in extents:
            total += used_bytes
            new.append(total)
            pointers.append(page_id - base)
            allocs.append(alloc_pages)
        delta = total - (cums[stop - 1] if stop else 0)
        if delta:
            cums[index:] = new + [c + delta for c in cums[stop:]]
        else:
            cums[index:stop] = new
        self.refs[index:stop] = pointers
        self.allocs[index:stop] = allocs
        return delta

    def add_count(self, index: int, delta: int) -> None:
        """Grow (or shrink) the byte count of child ``index`` by ``delta``."""
        self.cums[index:] = [c + delta for c in self.cums[index:]]

    def set_ref(self, index: int, ref: int) -> None:
        """Repoint child ``index`` (a shadowed index page moved)."""
        self.refs[index] = ref

    def update_extent(
        self,
        index: int,
        used_bytes: int | None = None,
        page_id: int | None = None,
        alloc_pages: int | None = None,
    ) -> int:
        """Change the segment referenced by pair ``index`` of a level-1
        node; returns the change in its byte count."""
        delta = 0
        if used_bytes is not None:
            delta = used_bytes - self.count(index)
        if page_id is not None:
            self.refs[index] = page_id - self.data_base
        if alloc_pages is not None:
            self.allocs[index] = alloc_pages
        if delta:
            self.add_count(index, delta)
        return delta

    def take(self, source: "IndexNode", start: int) -> int:
        """Move the pairs ``source[start:]`` to the end of this node;
        returns the bytes moved.

        One slice move expresses a split (an empty sibling takes the
        tail), a merge (the keeper takes all of the victim) and a root
        collapse (the emptied root takes all of its only child).
        """
        before = self.total_bytes
        shift = before - (source.cums[start - 1] if start else 0)
        self.cums.extend([c + shift for c in source.cums[start:]])
        self.refs.extend(source.refs[start:])
        self.allocs.extend(source.allocs[start:])
        del source.cums[start:]
        del source.refs[start:]
        del source.allocs[start:]
        return self.total_bytes - before

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def serialize(self, config: SystemConfig, *, is_root: bool,
                  total_bytes: int = 0, rightmost_alloc: int = 0) -> bytes:
        """Encode the node as page content: header, pairs and zero
        padding, the pairs packed at C speed with no per-pair Python at
        level 1."""
        cums = self.cums
        n = len(cums)
        page_size = config.page_size
        at = _check_fits(n, page_size, is_root)
        page = bytearray(page_size)
        if is_root:
            _ROOT_HEADER.pack_into(
                page, 0, _ROOT_MAGIC, self.level, 0, n, 0,
                total_bytes, rightmost_alloc, 0, 0, 0,
            )
        else:
            _NODE_HEADER.pack_into(page, 0, _NODE_MAGIC, self.level, 0, n, 0)
        flat = [0] * (2 * n)
        flat[0::2] = cums
        if self.level == 1:
            flat[1::2] = self.refs
        else:
            meta_base = self.meta_base
            flat[1::2] = [ref - meta_base for ref in self.refs]
        words = array("I", flat)
        if _BIG_ENDIAN:  # pragma: no cover - the page is little-endian
            words.byteswap()
        page[at : at + _PAIR_BYTES * n] = words
        return bytes(page)

    def snapshot(self, config: SystemConfig, *, is_root: bool = False,
                 total_bytes: int = 0,
                 rightmost_alloc: int = 0) -> Callable[[], bytes]:
        """A builder of this node's page image as it is now: copies of
        the columns, packed by :meth:`serialize` when the image is read.
        The copies keep the image fixed while the node changes (a split
        or splice after the flush, a freed page recovery still reads).
        An overfull node is refused now, as :meth:`serialize` refuses it."""
        _check_fits(len(self.cums), config.page_size, is_root)
        return functools.partial(
            _image, config, self.level, self.meta_base, self.cums[:],
            self.refs[:], is_root, total_bytes, rightmost_alloc,
        )

    @classmethod
    def deserialize(cls, data: bytes, page_id: int, *, is_root: bool,
                    data_base: int, meta_base: int,
                    leaf_alloc_pages) -> "tuple[IndexNode, int, int]":
        """Decode page content back into a node.

        ``leaf_alloc_pages(used_bytes, is_rightmost)`` supplies the
        allocated page count of each referenced segment (it depends on the
        storage scheme).  Returns ``(node, total_bytes, rightmost_alloc)``;
        the last two are meaningful only for the root.  The page is not
        trusted — recovery feeds this images that bypassed the CRC check —
        so a pair count beyond the page, a level below 1 or counts that do
        not increase raise :class:`StorageCorruptionError`.
        """
        if is_root:
            magic, level, _flags, n, _pad, total, rightmost_alloc, _r1, _r2, _r3 = (
                _ROOT_HEADER.unpack_from(data)
            )
            if magic != _ROOT_MAGIC:
                raise StorageCorruptionError("not a root page")
            offset = _ROOT_HEADER.size
        else:
            magic, level, _flags, n, _pad = _NODE_HEADER.unpack_from(data)
            if magic != _NODE_MAGIC:
                raise StorageCorruptionError("not an index page")
            total, rightmost_alloc = 0, 0
            offset = _NODE_HEADER.size
        if level < 1:
            raise StorageCorruptionError(f"index page {page_id} has level 0")
        if n > (len(data) - offset) // _PAIR_BYTES:
            raise StorageCorruptionError(
                f"index page {page_id} claims {n} pairs, more than fit"
            )
        flat = struct.unpack_from(f"<{2 * n}I", data, offset)
        node = cls(page_id, level, data_base, meta_base)
        cums = node.cums = list(flat[0::2])
        if any(after <= before for before, after in zip(cums, cums[1:])):
            raise StorageCorruptionError(
                f"index page {page_id} has non-increasing cumulative counts"
            )
        if level == 1:
            node.refs = list(flat[1::2])
            rightmost = n - 1 if is_root else -1
            node.allocs = [
                leaf_alloc_pages(count, i == rightmost)
                for i, count in enumerate(node.counts())
            ]
        else:
            node.refs = [meta_base + pointer for pointer in flat[1::2]]
        return node, total, rightmost_alloc


def _check_fits(n: int, page_size: int, is_root: bool) -> int:
    """Offset of the first pair; raises if ``n`` pairs overflow the page."""
    at = _ROOT_HEADER.size if is_root else _NODE_HEADER.size
    if at + _PAIR_BYTES * n > page_size:
        raise StorageCorruptionError(
            f"index node with {n} entries overflows page"
        )
    return at


def _image(config: SystemConfig, level: int, meta_base: int,
           cums: list[int], refs: list[int], is_root: bool,
           total_bytes: int, rightmost_alloc: int) -> bytes:
    """The image :meth:`IndexNode.snapshot` took, packed."""
    node = IndexNode(0, level, 0, meta_base)
    node.cums, node.refs = cums, refs
    return node.serialize(config, is_root=is_root, total_bytes=total_bytes,
                          rightmost_alloc=rightmost_alloc)
