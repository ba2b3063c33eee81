"""Purity contracts, checked on demand at runtime.

:func:`pure_read` declares that a method never mutates the simulated disk:
it may read pages (and charge read cost) but must not write, poke, defer,
discard or corrupt them.  When the environment variable
``REPRO_CHECKS=1`` is set, the decorator reads the disk's
``page_changes`` counter, which every one of those calls bumps, around
each call and raises :class:`~repro.core.errors.ContractViolationError`
if it moved.

``REPRO_CHECKS=1`` is the one switch for every runtime self-check: these
purity contracts, the buffer pool's pin-balance sanitizer (acquisition
sites recorded on every fix, balance asserted after every manager
operation, failed ones included while the disk is not halted) and a
private throwaway tracer for every untraced environment
(:func:`repro.obs.runtime.resolve_tracer`), so the tracing code paths run
under the whole test suite.  Unset, each check is one cheap test.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, TypeVar

from repro.core.errors import ContractViolationError

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable that switches the runtime checks on.
CHECKS_FLAG = "REPRO_CHECKS"

# ``os.environ.get`` costs ~1 microsecond per call (key encode + mapping
# lookup) and the flag guards paths invoked hundreds of thousands of
# times per experiment run, so it is read through the environment's
# underlying dict: still dynamic (tests monkeypatch the variable
# mid-process) at plain-dict-lookup cost.
try:
    _ENV: dict[Any, Any] | None = os.environ._data  # type: ignore[attr-defined]
    _KEY = os.environ.encodekey(CHECKS_FLAG)  # type: ignore[attr-defined]
    _ON = os.environ.encodevalue("1")  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - non-CPython environ layout
    _ENV = None


def checks_enabled() -> bool:
    """True when ``REPRO_CHECKS=1`` is set in the environment."""
    if _ENV is not None:
        return _ENV.get(_KEY) == _ON
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


def pure_read(func: F) -> F:
    """Declare (and under ``REPRO_CHECKS=1`` assert) disk purity.

    The decorated method must not mutate the simulated disk: no page
    writes, pokes, deferrals, discards or corruptions, directly or
    transitively.  Reading — including charged reads through the cost
    model — is allowed.
    """

    @functools.wraps(func)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not checks_enabled():
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
