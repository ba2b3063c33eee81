"""A fixed pure-Python kernel that tells how fast the host is right now.

The benchmark runs on shared virtual machines.  For seconds to minutes at
a time another guest shares the core, and identical passes then cost up
to 1.7x the CPU time (README.md, "Which clock").  The state flips faster
than a pass lasts, so it has to be observed at window granularity: after
every measured window the kernel below runs once (about 0.3 ms) and its
CPU time says how slow the host was just then.

The kernel is tight, cache-resident code and suffers more from a shared
core than the simulator does: across 110 probe passes of five workloads,
windows slowed by (kernel slowdown) ** 0.8 - e.g. kernel x1.9, windows
x1.65.  A window's time is therefore divided by that power of the
slowdown seen beside it.  On those probes this cut the range of
same-code results from 4-25 % to 1-9 %; 0.6 under-corrected all five
workloads and 1.0 over-corrected ``seq_build`` to 15 % (table in
README.md).  What remains is filtered by taking each window's lower
median across the passes (run.py).

The kernel touches nothing under ``src/``: a change to the program moves
the workload's time and not the kernel's.

A slowdown is a reading over the host's *quiet level*.  A run takes that
from its own readings (:func:`quiet_level`), so a faster host or another
interpreter references itself; the committed constant below only caps it,
for the shared-core spells of this host that outlast a whole run.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: First decile of the CPU seconds one :func:`kernel` call takes on the
#: quiet reference host (2-vCPU Firecracker guest, CPython 3.11.7; lowest
#: of 60 batches of 400 calls).  Only a cap: see :func:`quiet_level`.
REFERENCE_KERNEL_S = 278e-6

#: How much of the kernel's slowdown the simulator's windows share.
SENSITIVITY = 0.8


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def kernel() -> int:
    """About 0.3 ms of what the simulator spends its time on: method
    calls, slot and dict traffic, small allocations, small-int maths."""
    cells = [_Cell() for _ in range(32)]
    table: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        acc += cells[i & 31].add(i)
        table[i & 255] = acc
        acc ^= table.get((i * 7) & 255, 0)
    return acc


def timed_kernel(clock=time.thread_time) -> float:
    """CPU seconds of one kernel call."""
    begin = clock()
    kernel()
    return clock() - begin


def quiet_level(readings: Sequence[float]) -> float:
    """What a kernel call costs when this host is quiet, in CPU seconds.

    The first decile of the run's own readings: spells of a shared core
    come and go within seconds, so a tenth of a run's several hundred
    readings are quiet ones.  A spell can outlast a run, though (two
    minutes at 1.6x were seen), and such a run has no quiet reading of
    its own; the committed reference caps the level for it.  On a host
    whose quiet level is above the reference every run is scaled by the
    same factor, which leaves comparisons made there valid.
    """
    return min(REFERENCE_KERNEL_S, statistics.quantiles(readings, n=10)[0])


def slowdown(kernel_seconds: float, quiet: float) -> float:
    """The factor by which a window beside this kernel reading was slowed."""
    return max(1.0, kernel_seconds / quiet) ** SENSITIVITY
