"""Deterministic, seeded fault injection for the storage stack.

The subsystem has two halves:

* :class:`FaultPlan` / :class:`Schedule` — an immutable description of
  *what* goes wrong and at *which* physical I/O calls: transient read and
  write faults, torn multi-page writes, silent bit flips, and crashes;
* :class:`FaultInjector` — a context manager that executes a plan
  against one :class:`~repro.disk.disk.SimulatedDisk` through the disk's
  sanctioned :class:`~repro.disk.disk.FaultSite` hook.

Detection and recovery live elsewhere: per-page checksums in the disk
envelope (:class:`~repro.core.errors.ChecksumError`), bounded retries
under :class:`~repro.disk.iomodel.RetryPolicy` (accounted in
``IOStats.retries``), and the one exhaustive crash sweep —
:func:`repro.recovery.sweep.sweep`, over single-store operations and
cross-shard batches alike.  See ``docs/robustness.md``.
"""

from repro.core.errors import ChecksumError, CrashError, IOFaultError
from repro.disk.disk import FaultSite
from repro.disk.iomodel import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import NEVER, FaultPlan, Schedule, at, every

__all__ = [
    "ChecksumError",
    "CrashError",
    "DEFAULT_RETRY_POLICY",
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "IOFaultError",
    "NEVER",
    "RetryPolicy",
    "Schedule",
    "at",
    "every",
]
