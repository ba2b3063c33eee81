"""Shared behaviour of the tree-backed managers (ESM and EOS).

The paper's prototypes share the code that manipulates index nodes; here
the two managers additionally share object bookkeeping, reads, and
accounting, and differ in their leaf policies (fixed-size leaves vs.
variable-size threshold-constrained segments).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

from repro.buddy.area import DATA_AREA_BASE
from repro.core.env import StorageEnvironment
from repro.core.payload import Payload
from repro.core.manager import ImageExtent, LargeObjectManager
from repro.tree.node import IndexNode
from repro.tree.tree import PositionalTree

if TYPE_CHECKING:
    from repro.exec.engine import BatchEngine


class TreeBackedManager(LargeObjectManager):
    """Base class for managers whose objects are positional trees."""

    def __init__(self, env: StorageEnvironment) -> None:
        super().__init__(env)
        self._objects: dict[int, PositionalTree] = {}
        #: Pages every segment read is charged for.  Zero, the default,
        #: reads only the pages the byte range touches; ESM's whole-leaf
        #: I/O ablation sets it to the leaf size.
        self._whole_leaf_pages = 0

    # ------------------------------------------------------------------
    # Leaf policy hook
    # ------------------------------------------------------------------
    def _leaf_alloc_pages(self, used_bytes: int, is_rightmost: bool) -> int:
        """Allocated pages of a segment holding ``used_bytes`` bytes."""
        return -(-used_bytes // self.config.page_size)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _new_tree(self) -> PositionalTree:
        """An unrooted tree on this manager's environment and leaf policy;
        ``create()`` or ``reopen()`` it."""
        return PositionalTree(
            self.config,
            self.env.pool,
            self.env.areas.meta,
            data_base=DATA_AREA_BASE,
            shadow=self.env.shadow,
            leaf_alloc_pages=self._leaf_alloc_pages,
        )

    def create(self, data: Payload = b"") -> int:
        """Create an object backed by a fresh positional count tree."""
        with self._op_span("create"):
            tree = self._new_tree()
            tree.check_growth(len(data))
            oid = tree.create()
            self._objects[oid] = tree
            with self._op(tree):
                if data:
                    self._extend_fresh(tree, data)
            return oid

    def destroy(self, oid: int) -> None:
        """Free every leaf segment and index page of the object."""
        tree = self._tree(oid)
        with self._op_span("destroy", oid):
            for extent in tree.destroy():
                self.env.areas.data.free(extent.page_id, extent.alloc_pages)
            del self._objects[oid]

    def size(self, oid: int) -> int:
        """Current object size in bytes (the tree's total count)."""
        return self._tree(oid).total_bytes

    def oids(self) -> list[int]:
        """Ids of every live object, sorted."""
        return sorted(self._objects)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read a byte range located through the positional tree.

        The tree descent yields one run per covered extent and the batch
        engine's read loop takes them to the segment I/O layer.  Phantom
        leaf data comes back as a length-only
        :class:`~repro.core.payload.SizedPayload`; recorded data as real
        ``bytes``.
        """
        tree = self._tree(oid)
        self._check_range(oid, offset, nbytes, tree.total_bytes)
        if nbytes == 0:
            return b""
        with self._op_span("read", oid):
            end = offset + nbytes
            whole = self._whole_leaf_pages
            runs = []
            for extent, start in tree.extents_covering(offset, nbytes):
                lo = max(offset, start) - start
                hi = min(end, start + extent.used_bytes) - start
                if hi > lo:
                    runs.append((extent.page_id, lo, hi - lo, whole))
            return self.env.exec.execute_read(runs)

    def _read_extent(self, page_id: int, start: int, nbytes: int) -> Payload:
        """Read bytes of the segment at ``page_id`` under the hybrid
        buffering policy: the one single-segment read of the update paths.
        """
        if nbytes == 0:
            return b""
        segio = self.env.segio
        if self._whole_leaf_pages:
            whole = segio.read_pages(page_id, self._whole_leaf_pages)
            return whole[start : start + nbytes]
        return segio.read_boundary_unaligned(page_id, start, nbytes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def allocated_pages(self, oid: int) -> int:
        """Leaf pages plus index pages currently allocated to the object."""
        tree = self._tree(oid)
        return tree.leaf_pages_allocated() + tree.index_page_count()

    def tree_of(self, oid: int) -> PositionalTree:
        """The object's positional tree (for tests and inspection)."""
        return self._tree(oid)

    # ------------------------------------------------------------------
    # The committed image
    # ------------------------------------------------------------------
    def image_extents(self, oid: int) -> Iterator[ImageExtent]:
        """The root and every index page, then the leaf extents.

        The rightmost extent takes the root header's allocation, as
        :meth:`PositionalTree.reopen` applies it: untrimmed append slack
        is recorded nowhere else.
        """
        page_size = self.config.page_size
        root, _total, rightmost_alloc = self._image_node(oid, is_root=True)
        nodes = [root]
        for node in nodes:  # breadth first: leaf parents come last, in order
            if not node.is_leaf_parent:
                nodes.extend(
                    self._image_node(ref, is_root=False)[0] for ref in node.refs
                )
        extents = [e for node in nodes if node.is_leaf_parent
                   for e in node.extents()]
        if rightmost_alloc and extents:
            extents[-1] = extents[-1]._replace(alloc_pages=rightmost_alloc)
        for node in nodes:
            yield ImageExtent(node.page_id, page_size, 1, True)
        for extent in extents:
            yield ImageExtent(*extent, False)

    def _image_node(
        self, page_id: int, *, is_root: bool
    ) -> tuple[IndexNode, int, int]:
        return IndexNode.deserialize(
            self.env.disk.peek_pages(page_id, 1),
            page_id,
            is_root=is_root,
            data_base=DATA_AREA_BASE,
            meta_base=self.env.areas.meta.base_page_id,
            leaf_alloc_pages=self._leaf_alloc_pages,
        )

    def reload(self, oid: int) -> None:
        """Reopen the object's tree from its root page (charged interior
        reads, as :meth:`PositionalTree.reopen` documents)."""
        tree = self._new_tree()
        tree.reopen(oid)
        self._objects[oid] = tree

    # ------------------------------------------------------------------
    # Internals shared by subclasses
    # ------------------------------------------------------------------
    def _tree(self, oid: int) -> PositionalTree:
        try:
            return self._objects[oid]
        except KeyError:
            raise self._missing(oid) from None

    def _op(self, tree: PositionalTree) -> _TreeOp:
        """The operation bracket of ``tree`` (see :class:`_TreeOp`)."""
        return _TreeOp(self.env.exec, tree)

    @abc.abstractmethod
    def _extend_fresh(self, tree: PositionalTree, data: Payload) -> None:
        """Lay brand-new bytes out at the end of an (empty) object."""


class _TreeOp:
    """Operation bracket: flush modified index pages on success only.

    The flush must NOT run when the body raised — after an injected
    crash the environment is dead, and pushing half-applied index state
    at the disk from cleanup is exactly the bug class the disk's halt
    latch contains after a crash, and the cleanup contract
    (``repro.lint.contracts.refuse_in_cleanup``, ``REPRO_CHECKS=1``)
    refuses in every ``__exit__`` called with an exception.  A failed
    operation leaves its dirty marks in place; the next successful
    operation flushes them.

    The op runs inside a batch: the one ``submit_ops`` opened, or else a
    batch of one that the bracket opens and closes itself.  The charged
    non-root flush runs here; the uncharged root poke goes to the
    engine, which commits it at the batch boundary.
    """

    __slots__ = ("engine", "tree", "lone")

    def __init__(self, engine: BatchEngine, tree: PositionalTree) -> None:
        self.engine = engine
        self.tree = tree

    def __enter__(self) -> None:
        self.tree.begin_op()
        self.lone = self.engine.begin()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        engine = self.engine
        if exc_type is None:
            try:
                if self.tree.end_op():
                    engine.defer_root(self.tree)
            except BaseException:
                if self.lone:
                    engine.abort()
                raise
            if self.lone:
                engine.commit()
        elif self.lone:
            engine.abort()
