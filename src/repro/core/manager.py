"""Abstract interface implemented by the three large-object managers.

The operations are the byte-range interface motivated in the paper's
introduction: create and destroy objects, read or replace a random byte
range, insert or delete bytes at arbitrary positions, and append bytes at
the end.  Object ids are the page ids of the object's root page (ESM and
EOS) or long field descriptor page (Starburst).
"""

from __future__ import annotations

import abc
import contextlib
from typing import ContextManager, Iterator, NamedTuple, Sequence

from repro.core.env import StorageEnvironment
from repro.core.errors import (
    ByteRangeError,
    ContractViolationError,
    InvalidArgumentError,
    ObjectNotFoundError,
)
from repro.core.payload import Payload
from repro.exec.engine import BatchResult
from repro.exec.plan import BatchOp, MultiOp
from repro.obs.tracer import NULL_SPAN


@contextlib.contextmanager
def _san_guarded(pool, op: str, span: ContextManager[None]):
    """Wrap an op span with the ``REPRO_CHECKS=1`` pin-balance assertion.

    The check runs on every exit while the environment is live: a failed
    operation must release its pins too, and a leak it leaves raises
    :class:`ContractViolationError` chained from the operation's own
    error.  After an injected crash (the disk is halted) nothing is
    checked, so the crash surfaces unchanged.
    """
    try:
        with span:
            yield
    except BaseException as exc:
        if not (isinstance(exc, ContractViolationError) or pool.disk.halted):
            try:
                pool.assert_pin_balanced(op)
            except ContractViolationError as leak:
                raise leak from exc
        raise
    pool.assert_pin_balanced(op)


class ImageExtent(NamedTuple):
    """One page run an object's committed disk image references.

    Data records are segments (``used_bytes`` of content in
    ``alloc_pages`` allocated pages); meta records are whole index,
    descriptor or directory pages (``used_bytes`` is the page size).
    """

    page_id: int
    used_bytes: int
    alloc_pages: int
    meta: bool

    @property
    def pages(self) -> range:
        """Every allocated page id of the run."""
        return range(self.page_id, self.page_id + self.alloc_pages)


class LargeObjectManager(abc.ABC):
    """Common byte-range interface of the three storage mechanisms."""

    #: Short scheme name ("esm", "starburst", or "eos").
    scheme: str = ""

    def __init__(self, env: StorageEnvironment) -> None:
        self.env = env
        self.config = env.config

    def _op_span(self, op: str, oid: int | None = None) -> ContextManager[None]:
        """A tracing span for one manager operation (or a no-op).

        Every concrete manager wraps the body of each public operation in
        ``with self._op_span("append", oid):`` so traces attribute all
        lower-layer I/O to an ``op.append`` span tagged with the scheme.
        """
        tracer = self.env.tracer
        if tracer is None:
            # The hottest span in the stack: not even the span name and
            # attributes are built when tracing is off (~0.3 us per op).
            span = NULL_SPAN
        elif oid is None:
            span = tracer.span(f"op.{op}", scheme=self.scheme)
        else:
            span = tracer.span(f"op.{op}", scheme=self.scheme, oid=oid)
        if self.env.disk.checks:
            return _san_guarded(self.env.pool, f"op.{op}", span)
        return span

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def create(self, data: Payload = b"") -> int:
        """Create a new large object, optionally with initial content.

        ``data`` (here and in every byte-range operation) may be real
        ``bytes`` or a length-only
        :class:`~repro.core.payload.SizedPayload`; the latter carries
        only a size through the write path, which is how phantom-mode
        experiments avoid materializing object content.  Returns the
        object id.
        """

    @abc.abstractmethod
    def destroy(self, oid: int) -> None:
        """Delete the object and free all its disk space."""

    @abc.abstractmethod
    def size(self, oid: int) -> int:
        """Current object size in bytes."""

    @abc.abstractmethod
    def oids(self) -> list[int]:
        """Ids of every live object, sorted (a deterministic order)."""

    # ------------------------------------------------------------------
    # Byte-range operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read ``nbytes`` bytes starting at ``offset``.

        Recorded data comes back as ``bytes``; phantom leaf data as a
        length-only all-zero :class:`~repro.core.payload.SizedPayload`.
        """

    @abc.abstractmethod
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes at the end of the object."""

    @abc.abstractmethod
    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes at ``offset``, shifting the remainder right."""

    @abc.abstractmethod
    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete ``nbytes`` bytes at ``offset``, shifting the remainder left."""

    @abc.abstractmethod
    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite ``len(data)`` bytes at ``offset`` (size unchanged)."""

    # ------------------------------------------------------------------
    # Batch submission
    # ------------------------------------------------------------------
    def submit_ops(
        self, oid: int, ops: Sequence[BatchOp]
    ) -> BatchResult:
        """Execute a batch of byte-range operations on one object.

        The ops run in order as one batch of the
        :class:`~repro.exec.engine.BatchEngine`: uncharged
        root/descriptor flushes are group-committed once at the batch
        boundary, where each op called alone is a batch of one.  Every
        charged access executes — and lands in the ledger — in the same
        order either way, so reports, IOStats, and pool counters are
        bit-identical to running the same ops one by one.

        Returns a :class:`~repro.exec.engine.BatchResult` with per-op
        read payloads and per-op simulated costs.
        """
        with self._op_span("batch", oid):
            return self.env.exec.run_batch(self, oid, ops)

    def submit_multi(self, mops: Sequence[MultiOp]) -> BatchResult:
        """Execute a batch of operations spanning several objects.

        Same contract as :meth:`submit_ops`, but each op names its own
        object: one batch lifecycle covers the whole sequence, so root
        pokes and descriptor flushes are deduplicated across objects.
        Ops run in submission order; results and costs line up
        index-for-index with ``mops``.
        """
        with self._op_span("multi"):
            return self.env.exec.run_multi(self, mops)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def allocated_pages(self, oid: int) -> int:
        """Pages allocated to the object, including index/descriptor pages."""

    def utilization(self, oid: int) -> float:
        """Storage utilization: object bytes over allocated bytes.

        Compares the object size with the actual space required to store
        it, including possible index pages (Section 4.4.1).
        """
        pages = self.allocated_pages(oid)
        if pages == 0:
            return 1.0
        return self.size(oid) / (pages * self.config.page_size)

    # ------------------------------------------------------------------
    # The committed image
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def image_extents(self, oid: int) -> Iterator[ImageExtent]:
        """Every page run of ``oid``'s committed disk image, in image order.

        Walks the serialized root/descriptor/directory and what it links
        to with uncharged peeks, never the in-memory structure; on a
        healthy store the two agree at every batch boundary.  An
        unreadable first page raises a :class:`ReproError`.
        """

    def reload(self, oid: int) -> None:
        """Replace ``oid``'s in-memory state with its committed image."""
        raise InvalidArgumentError(
            f"scheme {self.scheme!r} cannot reload an object from its image"
        )

    # ------------------------------------------------------------------
    # Shared validation helpers
    # ------------------------------------------------------------------
    # Each check takes the size the op already holds (its tree's total,
    # its descriptor's or page list's sum): no second lookup of ``oid``.
    def _check_range(self, oid: int, offset: int, nbytes: int,
                     size: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > size:
            raise ByteRangeError(
                f"range [{offset}, {offset + nbytes}) outside object "
                f"{oid} of {size} bytes"
            )

    def _check_offset(self, oid: int, offset: int, size: int) -> None:
        if not 0 <= offset <= size:
            raise ByteRangeError(
                f"offset {offset} outside object {oid} of {size} bytes"
            )

    @staticmethod
    def _missing(oid: int) -> ObjectNotFoundError:
        return ObjectNotFoundError(f"no large object with id {oid}")
