"""Executes a :class:`~repro.faults.plan.FaultPlan` against one disk.

The injector implements the :class:`repro.disk.disk.FaultSite` protocol
and installs itself through the disk's sanctioned hook
(:meth:`~repro.disk.disk.SimulatedDisk.install_fault_site`) — no
attribute swapping, so an exception anywhere in a test or sweep iteration
cannot leave the disk permanently patched: the context manager's
``__exit__`` (or :meth:`uninstall`) always restores the clean state.
"""

from __future__ import annotations

import random

from repro.core.env import StorageEnvironment
from repro.core.errors import CrashError, IOFaultError
from repro.disk.disk import SimulatedDisk
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Arms a fault plan on a disk; use as a context manager.

    ::

        with FaultInjector(store.env, FaultPlan(crash_writes=at(3))):
            store.insert(oid, 0, data)      # raises CrashError

    Counters (:attr:`read_calls` / :attr:`write_calls`) start at the
    moment of construction and count *logical* calls — retried attempts
    of the same call do not advance them, so schedules address the k-th
    physical operation regardless of how many times it was retried.
    """

    def __init__(
        self, target: StorageEnvironment | SimulatedDisk, plan: FaultPlan
    ) -> None:
        self.disk: SimulatedDisk = (
            target if isinstance(target, SimulatedDisk) else target.disk
        )
        self.plan = plan
        self.read_calls = 0
        self.write_calls = 0
        #: Human-readable log of every fault injected, in order.
        self.events: list[str] = []
        self._rng = random.Random(plan.seed)
        self._installed = False

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Hook the plan into the disk's physical I/O paths."""
        if not self._installed:
            self.disk.install_fault_site(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Unhook; the disk behaves normally again.  Always safe."""
        if self._installed:
            self.disk.clear_fault_site()
            self._installed = False

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # FaultSite implementation (called by SimulatedDisk)
    # ------------------------------------------------------------------
    def read_attempt(
        self, disk: SimulatedDisk, start: int, n_pages: int, attempt: int
    ) -> None:
        """Inject a read fault when the plan's schedule fires."""
        if attempt == 0:
            self.read_calls += 1
        call = self.read_calls
        plan = self.plan
        if plan.read_faults.fires(call) and attempt < plan.transient_failures:
            self._note(
                f"read-fault call={call} attempt={attempt} pages="
                f"{start}+{n_pages}"
            )
            self._emit(
                "fault.read", call=call, attempt=attempt, start=start,
                pages_n=n_pages,
            )
            raise IOFaultError(
                f"injected read fault at call {call}, attempt {attempt} "
                f"(pages {start}..{start + n_pages - 1})",
                transient=plan.transient,
            )

    def write_attempt(
        self,
        disk: SimulatedDisk,
        start: int,
        n_pages: int,
        record: bool,
        attempt: int,
    ) -> int | None:
        """Inject a crash, write fault, or torn write per the plan."""
        if attempt == 0:
            self.write_calls += 1
        call = self.write_calls
        plan = self.plan
        if plan.crash_writes.fires(call):
            self._note(f"crash before write call={call} page={start}")
            self._emit("fault.crash", call=call, start=start)
            raise CrashError(
                f"injected crash before write call {call} (page {start})"
            )
        if plan.write_faults.fires(call) and attempt < plan.transient_failures:
            self._note(
                f"write-fault call={call} attempt={attempt} pages="
                f"{start}+{n_pages}"
            )
            self._emit(
                "fault.write", call=call, attempt=attempt, start=start,
                pages_n=n_pages,
            )
            raise IOFaultError(
                f"injected write fault at call {call}, attempt {attempt} "
                f"(pages {start}..{start + n_pages - 1})",
                transient=plan.transient,
            )
        if n_pages > 1 and plan.torn_writes.fires(call):
            prefix = plan.torn_prefix_pages
            if prefix is None:
                prefix = n_pages // 2
            prefix = min(prefix, n_pages - 1)
            self._note(
                f"torn write call={call} page={start} persisted="
                f"{prefix}/{n_pages}"
            )
            self._emit(
                "fault.torn", call=call, start=start, persisted=prefix,
                pages_n=n_pages,
            )
            return prefix
        return None

    def after_write(
        self, disk: SimulatedDisk, start: int, n_pages: int, record: bool
    ) -> None:
        """Plant silent corruption in a just-written recorded page."""
        if not record or not self.plan.corruption.fires(self.write_calls):
            return
        page = start + self._rng.randrange(n_pages)
        bit = self._rng.randrange(disk.config.page_size * 8)
        disk.corrupt_page(page, bit)
        self._note(
            f"corrupted page={page} bit={bit} after write call="
            f"{self.write_calls}"
        )
        self._emit(
            "fault.corrupt", call=self.write_calls, page=page, bit=bit
        )

    def _note(self, event: str) -> None:
        self.events.append(event)

    def _emit(self, kind: str, **attrs: object) -> None:
        """Mirror an injected fault into the trace as a structured event."""
        tracer = self.disk.tracer
        if tracer is not None:
            tracer.event(kind, **attrs)
