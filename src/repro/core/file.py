"""A file-like view over one large object.

The byte-range interface the paper requires (read/replace a range,
insert/delete at arbitrary positions, append at the end) maps naturally
onto a seekable file object.  :class:`LargeObjectFile` packages it that
way for clients that want stream-style access — e.g. feeding a parser or
copying an object in chunks — without exposing the manager API.
"""

from __future__ import annotations

import io
import os

from repro.core.errors import ByteRangeError, InvalidArgumentError
from repro.core.manager import LargeObjectManager
from repro.core.payload import Payload, SizedPayload, payload_concat


class LargeObjectFile(io.RawIOBase):
    """Seekable binary file interface over a stored large object.

    Writes overwrite bytes at the cursor (like a regular file opened
    ``r+b``) and extend the object when they run past the end; the extra
    byte-range operations (:meth:`insert_at`, :meth:`delete_range`) are
    exposed as explicit methods since files have no analogue.
    """

    def __init__(self, manager: LargeObjectManager, oid: int) -> None:
        super().__init__()
        self._manager = manager
        self._oid = oid
        self._position = 0

    # ------------------------------------------------------------------
    # io.RawIOBase interface
    # ------------------------------------------------------------------
    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._position

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_SET:
            target = offset
        elif whence == os.SEEK_CUR:
            target = self._position + offset
        elif whence == os.SEEK_END:
            target = self.size() + offset
        else:
            raise InvalidArgumentError(f"invalid whence {whence}")
        if target < 0:
            raise ByteRangeError("seek before start of object")
        self._position = target
        return self._position

    def read(self, size: int = -1) -> Payload:
        self._check_open()
        end = self.size()
        if self._position >= end:
            return b""
        if size is None or size < 0:
            size = end - self._position
        take = min(size, end - self._position)
        data = self._manager.read(self._oid, self._position, take)
        self._position += take
        return data

    def readinto(self, buffer: bytearray | memoryview) -> int:
        data = self.read(len(buffer))
        buffer[: len(data)] = bytes(data)
        return len(data)

    def write(self, data: "bytes | bytearray | memoryview | SizedPayload") -> int:
        self._check_open()
        if not isinstance(data, SizedPayload):
            data = bytes(data)
        if not data:
            return 0
        end = self.size()
        if self._position > end:
            # Sparse writes zero-fill the gap, like POSIX files.
            overlap = 0
            tail = payload_concat([SizedPayload(self._position - end), data])
        else:
            overlap = min(len(data), end - self._position)
            tail = data[overlap:]
        # The growth is one append, made before the replace: a manager
        # that refuses it (the object would grow past its limit) refuses
        # the write before any byte of it lands.
        if tail:
            self._manager.append(self._oid, tail)
        if overlap:
            self._manager.replace(self._oid, self._position, data[:overlap])
        self._position += len(data)
        return len(data)

    def truncate(self, size: int | None = None) -> int:
        self._check_open()
        target = self._position if size is None else size
        if target < 0:
            raise ByteRangeError("negative truncate size")
        current = self.size()
        if target < current:
            self._manager.delete(self._oid, target, current - target)
        elif target > current:
            self._manager.append(self._oid, SizedPayload(target - current))
        return target

    # ------------------------------------------------------------------
    # Byte-range extensions (no file analogue)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Current object size in bytes."""
        return self._manager.size(self._oid)

    def insert_at(self, offset: int, data: Payload) -> None:
        """Insert bytes, shifting the remainder right (Section 1)."""
        self._check_open()
        self._manager.insert(self._oid, offset, data)
        if offset <= self._position:
            self._position += len(data)

    def delete_range(self, offset: int, nbytes: int) -> None:
        """Delete bytes, shifting the remainder left (Section 1)."""
        self._check_open()
        self._manager.delete(self._oid, offset, nbytes)
        if offset + nbytes <= self._position:
            self._position -= nbytes
        elif offset < self._position:
            self._position = offset

    @property
    def oid(self) -> int:
        """Id of the underlying large object."""
        return self._oid

    def _check_open(self) -> None:
        if self.closed:
            raise InvalidArgumentError("I/O operation on closed file")
