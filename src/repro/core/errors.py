"""Exception hierarchy for the large-object storage simulation."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with inconsistent parameters."""


class InvalidArgumentError(ReproError, ValueError):
    """A caller passed an argument outside the accepted domain."""


class OutOfSpaceError(ReproError):
    """The buddy allocator could not satisfy an allocation request."""


class AllocationError(ReproError):
    """An allocation or deallocation request was malformed."""


class BufferPoolError(ReproError):
    """Buffer pool misuse, e.g. unfixing a page that is not fixed."""


class ObjectNotFoundError(ReproError, KeyError):
    """No large object with the given id exists in the store."""


class ByteRangeError(ReproError, ValueError):
    """A byte-range operation fell outside the object's current bounds."""


class StorageCorruptionError(ReproError):
    """An internal structural invariant was violated (a bug, if raised)."""


class PageFullError(ReproError):
    """The record does not fit in this page."""


class SchemaError(ReproError):
    """A record does not conform to its schema."""


class LongFieldTooLargeError(ReproError):
    """The descriptor page cannot hold another segment pointer."""


class ObjectTooLargeError(ReproError):
    """A tree-backed object would outgrow its 4-byte counts (2**32 - 1 bytes)."""


class TraceError(ReproError):
    """A trace line could not be parsed or applied."""


class DuplicateNameError(ReproError):
    """An object with this name already exists."""


class CrashError(ReproError):
    """Raised by the injector when the simulated system 'crashes'."""


class IOFaultError(ReproError):
    """An injected device-level I/O fault (see :mod:`repro.faults`).

    ``transient`` faults model the recoverable failures real devices
    report (a bad read that succeeds on retry); the storage stack retries
    them a bounded number of times before letting the error escape.
    Non-transient faults escape immediately.
    """

    def __init__(self, message: str, *, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


class ChecksumError(StorageCorruptionError):
    """A page's stored content no longer matches its write-time checksum.

    Raised by :class:`repro.disk.disk.SimulatedDisk` when an accounted
    read returns bytes whose CRC differs from the one recorded in the
    page envelope — silent corruption is detected, never propagated.
    """

    def __init__(self, page_id: int) -> None:
        super().__init__(f"checksum mismatch reading page {page_id}")
        self.page_id = page_id


class ContractViolationError(StorageCorruptionError):
    """A runtime ``@pure_read`` contract check failed (REPRO_CHECKS=1)."""
