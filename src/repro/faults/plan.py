"""Composable, deterministic fault plans.

A :class:`FaultPlan` describes *which* physical I/O calls misbehave and
*how*; :class:`repro.faults.injector.FaultInjector` executes the plan
against one disk.  Schedules are pure functions of the 1-based call
counter, so a plan is exactly reproducible: the same plan against the
same (deterministic) workload injects the same faults at the same
physical calls every run, in any process.

This generalizes a single hand-armed crash point into the systematic
harness the recovery literature validates shadowing with (EXODUS,
Starburst): crash at *every* write point, tear multi-page writes, flip
bits, fail reads.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import InvalidArgumentError


@dataclasses.dataclass(frozen=True)
class Schedule:
    """When a fault fires, over a 1-based counter of physical I/O calls.

    A schedule fires at every call listed in ``points`` and, when
    ``period`` is positive, at every ``period``-th call from ``start``
    onward.  The default fires never.
    """

    points: frozenset[int] = frozenset()
    period: int = 0
    start: int = 1

    def __post_init__(self) -> None:
        if self.period < 0:
            raise InvalidArgumentError("schedule period must be non-negative")
        if self.start < 1:
            raise InvalidArgumentError("schedules count calls from 1")
        if any(p < 1 for p in self.points):
            raise InvalidArgumentError("schedule points count calls from 1")

    def fires(self, call: int) -> bool:
        """Whether the schedule fires at the given 1-based call number."""
        if call in self.points:
            return True
        return (
            self.period > 0
            and call >= self.start
            and (call - self.start) % self.period == 0
        )


#: The schedule that never fires (the default for every fault kind).
NEVER = Schedule()


def at(*calls: int) -> Schedule:
    """A schedule firing exactly at the given 1-based call numbers."""
    return Schedule(points=frozenset(calls))


def every(period: int, start: int = 1) -> Schedule:
    """A schedule firing at ``start`` and every ``period`` calls after."""
    if period < 1:
        raise InvalidArgumentError("period must be positive")
    return Schedule(period=period, start=start)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, when — one immutable, picklable value object.

    Attributes
    ----------
    read_faults / write_faults:
        Physical read/write calls that report a device error
        (:class:`~repro.core.errors.IOFaultError`).  Transient faults
        (the default) fail ``transient_failures`` consecutive attempts of
        the same call and then succeed; the disk retries them under its
        :class:`~repro.disk.iomodel.RetryPolicy`, charging each repeat.
    torn_writes:
        Multi-page write calls that persist only a prefix of the run
        before the simulated machine dies (``torn_prefix_pages`` pages,
        or half the run when ``None``).  Single-page writes are atomic,
        as on a real disk, and are never torn.
    corruption:
        Write calls after which one bit of one just-written recorded page
        is silently flipped — the checksum envelope is *not* updated, so
        the corruption is latent until the page is next read or scanned.
        Phantom writes store no bytes and are skipped.
    crash_writes:
        Write calls that never happen: the machine crashes first
        (:class:`~repro.core.errors.CrashError`).  ``crash_writes=at(k)``
        for every ``k`` is the exhaustive sweep of
        :func:`repro.recovery.sweep.sweep`.
    transient_failures:
        Consecutive failing attempts per fired read/write fault.  Set it
        at or above the retry policy's ``max_attempts`` to make the fault
        effectively permanent.
    transient:
        Whether injected I/O faults are marked transient (retryable).
    seed:
        Seed for the injector's private RNG (corruption page/bit choice).
        Everything else in the plan is already deterministic.
    """

    read_faults: Schedule = NEVER
    write_faults: Schedule = NEVER
    torn_writes: Schedule = NEVER
    corruption: Schedule = NEVER
    crash_writes: Schedule = NEVER
    transient_failures: int = 1
    transient: bool = True
    torn_prefix_pages: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.transient_failures < 1:
            raise InvalidArgumentError(
                "transient_failures must be at least 1"
            )
        if self.torn_prefix_pages is not None and self.torn_prefix_pages < 0:
            raise InvalidArgumentError(
                "torn_prefix_pages must be non-negative"
            )
