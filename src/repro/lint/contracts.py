"""Purity and cleanup contracts, checked on demand at runtime.

:func:`pure_read` declares that a method never mutates the simulated disk:
it may read pages (and charge read cost) but must not write, poke, defer,
discard or corrupt them.  With the runtime checks on, the decorator reads
the disk's ``page_changes`` counter, which every one of those calls
bumps, around each call and raises
:class:`~repro.core.errors.ContractViolationError` if it moved.

:func:`refuse_in_cleanup` is the cleanup contract: no page may change
and no space may be allocated or freed while an exception is being
handled (in an ``except`` body, a ``finally`` body an exception reached,
or an ``__exit__`` called with one).  A failed operation's cleanup must
leave the committed image (paper Section 3.3's shadow) as it was.  The
disk's page-changing methods and the buddy allocator call it first.

``REPRO_CHECKS=1`` is the one switch for every runtime self-check, read
once when a :class:`~repro.disk.disk.SimulatedDisk` is built and kept as
its ``checks`` flag: these contracts; the disk's check that each pending
page image builds on read as it built at the write; the pool's
pin-balance sanitizer; and a private tracer for every untraced
environment (:func:`repro.obs.runtime.resolve_tracer`).  Off, each check
is one attribute test.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, TypeVar

from repro.core.errors import ContractViolationError

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable that switches the runtime checks on.
CHECKS_FLAG = "REPRO_CHECKS"


def checks_enabled() -> bool:
    """True when ``REPRO_CHECKS=1`` is set in the environment now."""
    return os.environ.get(CHECKS_FLAG, "") == "1"


def _find_disk(obj: Any) -> Any | None:
    """Locate the simulated disk reachable from ``obj``, if any.

    Accepts the disk itself, an object with a ``disk`` attribute (buffer
    pool, environment), or one holding a pool (``obj.pool.disk``).
    """
    candidates = (
        obj,
        getattr(obj, "disk", None),
        getattr(getattr(obj, "pool", None), "disk", None),
        getattr(getattr(obj, "env", None), "disk", None),
    )
    for candidate in candidates:
        if hasattr(candidate, "discard_pages") and hasattr(candidate, "cost"):
            return candidate
    return None


def refuse_in_cleanup(what: str) -> None:
    """Raise :class:`ContractViolationError` if an exception is being
    handled: ``what`` (a page change, an allocation or a free) would run
    as cleanup of a failed call.  Callers test their ``checks`` flag."""
    handled = sys.exc_info()[1]
    if handled is not None:
        raise ContractViolationError(
            f"{what} while handling {type(handled).__name__}: cleanup must "
            "not change pages or allocate or free space"
        )


def pure_read(func: F) -> F:
    """Declare (and, with the checks on, assert) disk purity.

    The decorated method must not mutate the simulated disk: no page
    writes, pokes, deferrals, discards or corruptions, directly or
    transitively.  Reading — including charged reads through the cost
    model — is allowed.  The owner carries its disk's ``checks`` flag.
    """

    @functools.wraps(func)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not self.checks:
            return func(self, *args, **kwargs)
        disk = _find_disk(self)
        if disk is None:
            return func(self, *args, **kwargs)
        before = disk.page_changes
        result = func(self, *args, **kwargs)
        if disk.page_changes != before:
            raise ContractViolationError(
                f"@pure_read method {func.__qualname__} mutated the disk: "
                f"{disk.page_changes - before} page-changing calls"
            )
        return result

    wrapper.__repro_pure_read__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
