"""The analytic I/O cost model of Section 4.1.

The paper separates *seek* time (including rotational delay) from *data
transfer* time so that sequential multi-block accesses can be modelled:

    "We count a disk seek every time the disk is accessed to fetch or write
     a segment on disk.  For example, the I/O cost of reading a 3-block
     (12K-byte) segment is 33 + 4 x 3 = 45 milliseconds; the cost of reading
     the same number of blocks with 3 I/O calls is (33 + 4) x 3 = 111
     milliseconds."

Every physical access therefore costs ``seek_ms + n_pages *
transfer_ms_per_page``.  :class:`IOStats` accumulates those charges and a
few auxiliary counters used by the experiments.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SystemConfig
from repro.core.errors import InvalidArgumentError


@dataclasses.dataclass
class IOStats:
    """Mutable accumulator of simulated I/O activity.

    Attributes
    ----------
    read_calls / write_calls:
        Number of physical I/O calls (each one charges a seek).
    pages_read / pages_written:
        Pages transferred by those calls.
    retries:
        Physical calls that were *repeats* of a failed attempt (transient
        injected faults, see :mod:`repro.faults`).  Retried attempts are
        also counted in ``read_calls``/``write_calls`` — this counter only
        attributes how many of those calls were fault-recovery overhead.
        Always zero when no faults are armed.
    """

    read_calls: int = 0
    write_calls: int = 0
    pages_read: int = 0
    pages_written: int = 0
    retries: int = 0

    @property
    def io_calls(self) -> int:
        """Total physical I/O calls (reads + writes)."""
        return self.read_calls + self.write_calls

    @property
    def pages_transferred(self) -> int:
        """Total pages moved between disk and memory."""
        return self.pages_read + self.pages_written

    def add(self, other: "IOStats") -> None:
        """Accumulate another stats record into this one."""
        self.read_calls += other.read_calls
        self.write_calls += other.write_calls
        self.pages_read += other.pages_read
        self.pages_written += other.pages_written
        self.retries += other.retries

    def copy(self) -> "IOStats":
        """Return an independent snapshot of the current counters."""
        return dataclasses.replace(self)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return the activity that happened since ``earlier`` was captured."""
        return IOStats(
            read_calls=self.read_calls - earlier.read_calls,
            write_calls=self.write_calls - earlier.write_calls,
            pages_read=self.pages_read - earlier.pages_read,
            pages_written=self.pages_written - earlier.pages_written,
            retries=self.retries - earlier.retries,
        )

    def elapsed_ms(self, config: SystemConfig) -> float:
        """Simulated elapsed time of the recorded activity, in milliseconds."""
        seek = self.io_calls * config.seek_ms
        transfer = self.pages_transferred * config.transfer_ms_per_page
        return seek + transfer


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry policy for transient injected I/O faults.

    A failed attempt is retried up to ``max_attempts - 1`` times; each
    retried attempt is charged as a full physical call (the device re-seeks
    and re-transfers — the simulated analogue of retry backoff) and is
    additionally counted in :attr:`IOStats.retries`.  With no faults armed
    the policy is never consulted, so the cost model of Section 4.1 is
    unchanged.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidArgumentError("max_attempts must be at least 1")


#: Policy used by every disk unless a test installs a different one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class CostModel:
    """Charges seek + transfer costs for physical accesses.

    A single :class:`CostModel` instance is shared by the disk, the buffer
    pool, and the segment I/O layer, so all charges land in one
    :class:`IOStats` ledger.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = IOStats()

    def charge_read(self, n_pages: int) -> None:
        """Charge one physical read call transferring ``n_pages`` pages."""
        if n_pages <= 0:
            raise InvalidArgumentError("a physical read must transfer at least one page")
        self.stats.read_calls += 1
        self.stats.pages_read += n_pages

    def charge_write(self, n_pages: int) -> None:
        """Charge one physical write call transferring ``n_pages`` pages."""
        if n_pages <= 0:
            raise InvalidArgumentError("a physical write must transfer at least one page")
        self.stats.write_calls += 1
        self.stats.pages_written += n_pages

    def charge_retry_read(self, n_pages: int) -> None:
        """Charge one *retried* read attempt (a transient fault fired).

        The repeat is a real physical call — seek plus transfer — and is
        additionally attributed to :attr:`IOStats.retries`.
        """
        self.charge_read(n_pages)
        self.stats.retries += 1

    def charge_retry_write(self, n_pages: int) -> None:
        """Charge one *retried* write attempt (a transient fault fired)."""
        self.charge_write(n_pages)
        self.stats.retries += 1

    def snapshot(self) -> IOStats:
        """Capture the counters, for later use with :meth:`IOStats.delta`."""
        return self.stats.copy()

    def elapsed_since(self, snapshot: IOStats) -> float:
        """Simulated milliseconds of I/O performed since ``snapshot``."""
        return self.stats.delta(snapshot).elapsed_ms(self.config)
