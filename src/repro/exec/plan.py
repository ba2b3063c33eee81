"""The op descriptors a batch is submitted as.

A batch is data, not behaviour: a sequence of :class:`BatchOp` values
(or :class:`MultiOp` pairs naming their object) that the engine
dispatches in order under one batch lifecycle.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.payload import Payload

#: ``BatchOp.kind`` values accepted by ``submit_ops``.  Lifecycle
#: operations (create/destroy) are excluded: batches operate on one
#: existing object.
READ = "read"
APPEND = "append"
INSERT = "insert"
DELETE = "delete"
REPLACE = "replace"

OP_KINDS = frozenset({READ, APPEND, INSERT, DELETE, REPLACE})


class BatchOp(NamedTuple):
    """One byte-range operation in a submitted batch.

    ``data`` is required by ``append``/``insert``/``replace``;
    ``nbytes`` by ``read``/``delete``.  The unused field is ignored.
    """

    kind: str
    offset: int = 0
    nbytes: int = 0
    data: Payload = b""


class MultiOp(NamedTuple):
    """One (object id, operation) pair of a multi-object batch.

    ``submit_multi`` executes a heterogeneous sequence of these against
    one manager under a single batch lifecycle; the sharded store's
    router splits a mixed-shard sequence into per-shard runs of them.
    """

    oid: int
    op: BatchOp


def multi_op(oid: int, op: BatchOp) -> MultiOp:
    """Bind a batch op to the object it targets."""
    return MultiOp(oid, op)


def read_op(offset: int, nbytes: int) -> BatchOp:
    """A batched read of ``nbytes`` at ``offset``."""
    return BatchOp(READ, offset=offset, nbytes=nbytes)


def append_op(data: Payload) -> BatchOp:
    """A batched append of ``data``."""
    return BatchOp(APPEND, data=data)


def insert_op(offset: int, data: Payload) -> BatchOp:
    """A batched insert of ``data`` at ``offset``."""
    return BatchOp(INSERT, offset=offset, data=data)


def delete_op(offset: int, nbytes: int) -> BatchOp:
    """A batched delete of ``nbytes`` at ``offset``."""
    return BatchOp(DELETE, offset=offset, nbytes=nbytes)


def replace_op(offset: int, data: Payload) -> BatchOp:
    """A batched in-place overwrite of ``data`` at ``offset``."""
    return BatchOp(REPLACE, offset=offset, data=data)
