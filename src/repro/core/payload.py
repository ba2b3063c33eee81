"""Length-only payloads for the phantom leaf path (paper Section 4.1).

The paper's simulator never stores leaf bytes: experiments account the
I/O cost of object data without materializing it.  :class:`SizedPayload`
is the in-process counterpart — a payload that knows its *length* but is
all zeros by definition, so slicing, concatenation, and padding are pure
arithmetic.  Threading it through the managers, ``SegmentIO``, the
buffer pool, and the simulated disk turns phantom runs (``record=False``)
into index manipulation plus counter updates, with no byte copies.

Semantics mirror ``bytes`` wherever the storage stack relies on them:

* ``len(p)``, truthiness, slicing (O(1), returns a ``SizedPayload``),
* ``p + q`` — SizedPayload + SizedPayload stays lazy; mixing with real
  ``bytes``/``memoryview`` materializes (correct, but only happens when
  genuinely zero and non-zero data meet),
* ``b"" + p`` works via ``__radd__`` (``bytes.__add__`` returns
  ``NotImplemented`` for foreign types),
* ``p == b"\\x00" * len(p)`` is true; equality against non-zero bytes is
  false,
* ``bytes(p)`` / ``p.tobytes()`` materialize from one shared, growable
  zero buffer (no per-call allocation beyond the slice itself).

``SizedPayload`` deliberately does *not* implement the buffer protocol
(impossible from pure Python), so ``b"".join(...)`` and ``memoryview``
reject it loudly — payload-carrying call sites use :func:`payload_concat`
and :func:`payload_view` instead.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from repro.core.errors import InvalidArgumentError

__all__ = [
    "SizedPayload",
    "Payload",
    "PayloadView",
    "check_payload",
    "zeros",
    "payload_concat",
    "payload_view",
    "payload_bytes",
]

#: Shared zero storage backing ``bytes(SizedPayload)``; grows on demand.
_ZERO_BUFFER = bytes(65536)


def _zero_bytes(n: int) -> bytes:
    """``n`` zero bytes served from the shared buffer when possible."""
    global _ZERO_BUFFER
    if n > len(_ZERO_BUFFER):
        _ZERO_BUFFER = bytes(n)
    if n == len(_ZERO_BUFFER):
        return _ZERO_BUFFER
    return _ZERO_BUFFER[:n]


class SizedPayload:
    """An all-zero payload represented only by its length."""

    __slots__ = ("_length",)

    def __init__(self, length: int) -> None:
        if length < 0:
            raise InvalidArgumentError(f"negative payload length: {length}")
        self._length = length

    # -- size and truthiness ------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- slicing -------------------------------------------------------
    def __getitem__(self, key: "slice | int") -> "SizedPayload | int":
        if type(key) is slice:
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise InvalidArgumentError(
                    "SizedPayload slicing requires step 1"
                )
            # Clamped, so ``__init__``'s length check is skipped safely.
            result = object.__new__(SizedPayload)
            result._length = stop - start if stop > start else 0
            return result
        index = key
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            # IndexError, not a ReproError: the sequence protocol (and any
            # caller iterating like over bytes) depends on this exact type.
            raise IndexError("SizedPayload index out of range")  # repro-lint: disable=ERR001
        return 0

    def __iter__(self) -> Iterator[int]:
        return (0 for _ in range(self._length))

    # -- concatenation -------------------------------------------------
    def __add__(self, other: object) -> "SizedPayload | bytes":
        if isinstance(other, SizedPayload):
            return SizedPayload(self._length + len(other))
        if isinstance(other, (bytes, bytearray, memoryview)):
            if len(other) == 0:
                return self
            return self.tobytes() + bytes(other)
        return NotImplemented  # type: ignore[return-value]

    def __radd__(self, other: object) -> "SizedPayload | bytes":
        if isinstance(other, (bytes, bytearray, memoryview)):
            if len(other) == 0:
                return self
            return bytes(other) + self.tobytes()
        return NotImplemented  # type: ignore[return-value]

    # -- equality ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SizedPayload):
            return self._length == len(other)
        if isinstance(other, (bytes, bytearray, memoryview)):
            if len(other) != self._length:
                return False
            return not any(bytes(other))
        return NotImplemented

    #: Unhashable, like any mutable-ish buffer stand-in: failing loudly
    #: beats silently diverging from bytes hashing.
    __hash__ = None  # type: ignore[assignment]

    # -- materialization ----------------------------------------------
    def __bytes__(self) -> bytes:
        return _zero_bytes(self._length)

    def tobytes(self) -> bytes:
        """Materialize as real zero bytes (shared-buffer backed)."""
        return _zero_bytes(self._length)

    def ljust(self, width: int, fillchar: bytes = b"\x00") -> "SizedPayload":
        """Zero-pad to ``width`` — free, since the payload is zeros."""
        if fillchar != b"\x00":
            raise InvalidArgumentError(
                "SizedPayload can only be padded with zeros"
            )
        if width <= self._length:
            return self
        return SizedPayload(width)

    def __repr__(self) -> str:
        return f"SizedPayload({self._length})"


#: Anything the storage stack accepts as object data.
Payload = Union[bytes, SizedPayload]

#: Zero-copy view types produced by :func:`payload_view`.
PayloadView = Union[memoryview, SizedPayload]


def check_payload(data: object) -> None:
    """Refuse object data that is neither bytes-like nor sized.

    Called where a write enters the store, before anything is allocated
    or charged: a ``str`` (say) would otherwise fail only once the first
    segment is already on disk.
    """
    if not isinstance(data, (bytes, SizedPayload, bytearray, memoryview)):
        raise InvalidArgumentError(
            "object data must be bytes-like or a SizedPayload, not "
            f"{type(data).__name__}"
        )


def zeros(length: int) -> SizedPayload:
    """A lazily-zero payload of ``length`` bytes."""
    return SizedPayload(length)


def payload_concat(parts: Sequence[Payload | memoryview]) -> Payload:
    """Concatenate payload pieces, staying lazy when all are sized.

    The replacement for ``b"".join(...)`` on payload paths: if every
    non-empty part is a :class:`SizedPayload` the result is one (pure
    arithmetic); otherwise real bytes are joined, materializing any
    sized parts.
    """
    total = 0
    mixed = False
    for part in parts:
        n = len(part)
        total += n
        if n and not isinstance(part, SizedPayload):
            mixed = True
    if not mixed:
        return SizedPayload(total)
    return b"".join(
        part.tobytes() if isinstance(part, SizedPayload) else part
        for part in parts
    )


def payload_view(data: Payload | bytearray | memoryview) -> PayloadView:
    """A zero-copy sliceable view over ``data``.

    Replaces the ``memoryview(bytes(data))`` idiom: real buffers become
    a ``memoryview``; a :class:`SizedPayload` is already its own O(1)
    sliceable view.
    """
    if isinstance(data, SizedPayload):
        return data
    return memoryview(data)


def payload_bytes(data: "Payload | bytearray | memoryview") -> Payload:
    """Detach a view into an owned payload.

    Replaces the ``bytes(view)`` idiom after slicing a
    :func:`payload_view`: memoryviews are copied into ``bytes``; a
    :class:`SizedPayload` is immutable and returned as-is.
    """
    if isinstance(data, SizedPayload):
        return data
    if isinstance(data, bytes):
        return data
    return bytes(data)
