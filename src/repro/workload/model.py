"""The bytes each object should hold: one ``bytearray`` per object id.

:class:`ObjectModel` replays the op descriptors of :mod:`repro.exec.plan`
(plus create and destroy) on plain byte arrays, and
:meth:`ObjectModel.differences` lists where a store disagrees with it.  It
is the reference a differential test holds a store to: after the same
ops, every modelled object has the model's size and bytes.

The model trusts its ops: bounds are the store's to check, so replay only
what the store accepted.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from repro.core.payload import Payload, SizedPayload
from repro.exec.plan import APPEND, DELETE, INSERT, READ, REPLACE, MultiOp


class ObjectStore(Protocol):
    """What the model runs ops on and compares against: a store, a
    sharded store or a manager."""

    def size(self, oid: int) -> int: ...

    def read(self, oid: int, offset: int, nbytes: int) -> Payload: ...

    def append(self, oid: int, data: Payload) -> None: ...

    def insert(self, oid: int, offset: int, data: Payload) -> None: ...

    def delete(self, oid: int, offset: int, nbytes: int) -> None: ...

    def replace(self, oid: int, offset: int, data: Payload) -> None: ...


def _content(data: Payload) -> bytes:
    """The bytes a payload stands for (a sized payload is zeros)."""
    return data.tobytes() if isinstance(data, SizedPayload) else data


class ObjectModel:
    """A ``bytearray`` per object, changed only by replayed ops."""

    def __init__(self) -> None:
        self._objects: dict[int, bytearray] = {}

    def create(self, oid: int, data: Payload = b"") -> None:
        """Model a new object ``oid`` holding ``data``."""
        content = bytearray()
        content += _content(data)
        self._objects[oid] = content

    def destroy(self, oid: int) -> None:
        """Forget object ``oid``."""
        del self._objects[oid]

    def oids(self) -> Iterator[int]:
        """The modelled object ids, in creation order."""
        return iter(self._objects)

    def size(self, oid: int) -> int:
        """The modelled size of ``oid`` in bytes."""
        return len(self._objects[oid])

    def read(self, oid: int, offset: int, nbytes: int) -> bytearray:
        """A copy of the bytes a read of ``oid`` must return."""
        return self._objects[oid][offset:offset + nbytes]

    def apply(self, mop: MultiOp) -> None:
        """Apply one op to its object (a read changes nothing)."""
        content = self._objects[mop.oid]
        op = mop.op
        if op.kind == READ:
            return
        data = _content(op.data)
        if op.kind == APPEND:
            content += data
        elif op.kind == INSERT:
            content[op.offset:op.offset] = data
        elif op.kind == DELETE:
            del content[op.offset:op.offset + op.nbytes]
        elif op.kind == REPLACE:
            content[op.offset:op.offset + len(data)] = data

    def run(self, store: ObjectStore, mop: MultiOp) -> Payload | None:
        """:func:`issue` ``mop`` on ``store``, then apply it here."""
        result = issue(store, mop)
        self.apply(mop)
        return result

    def differences(self, store: ObjectStore) -> list[str]:
        """Where ``store`` disagrees with the model: one line per object
        whose size or bytes differ (empty when they all agree)."""
        problems = []
        for oid, content in self._objects.items():
            size = store.size(oid)
            if size != len(content):
                problems.append(
                    f"object {oid}: size {size}, model {len(content)}"
                )
            elif store.read(oid, 0, size) != content:
                problems.append(f"object {oid}: bytes differ from the model")
        return problems


def issue(store: ObjectStore, mop: MultiOp) -> Payload | None:
    """Run ``mop`` on ``store`` through its per-op call (``read``,
    ``append``, ...); returns what the store returned (a read's bytes)."""
    oid, op = mop
    if op.kind == READ:
        return store.read(oid, op.offset, op.nbytes)
    if op.kind == APPEND:
        store.append(oid, op.data)
    elif op.kind == INSERT:
        store.insert(oid, op.offset, op.data)
    elif op.kind == DELETE:
        store.delete(oid, op.offset, op.nbytes)
    elif op.kind == REPLACE:
        store.replace(oid, op.offset, op.data)
    return None
