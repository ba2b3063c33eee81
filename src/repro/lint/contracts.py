"""Purity contracts checked statically by the linter and, on demand, at runtime.

:func:`pure_read` declares that a method never mutates the simulated disk:
it may read pages (and charge read cost) but must not write, poke, or
discard them.  The declaration is enforced twice:

* **statically** — rule INV001 (:mod:`repro.lint.rules`) walks the bodies
  of decorated methods and rejects calls to ``write_pages`` /
  ``poke_pages`` / ``discard_pages`` / ``charge_write`` and assignments
  through a ``disk`` attribute;
* **at runtime** — when the environment variable ``REPRO_DEBUG=1`` is
  set, the decorator snapshots the disk's write counters and page count
  around each call and raises
  :class:`~repro.core.errors.ContractViolationError` if they moved.

With ``REPRO_DEBUG`` unset the runtime wrapper is a cheap passthrough, so
the contract costs nothing in benchmarks.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, TypeVar

from repro.core.errors import ContractViolationError

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable that switches the runtime checks on.
RUNTIME_FLAG = "REPRO_DEBUG"

#: Environment variable that switches the pin-balance sanitizer on.  The
#: sanitizer is the runtime mirror of the static FLOW001 typestate rule
#: (``repro.lint --flow``): FLOW001 proves fix/unfix balance over the
#: modeled CFG; ``REPRO_SAN=1`` asserts it on the paths actually taken,
#: with acquisition-site attribution, so each check validates the other.
SANITIZER_FLAG = "REPRO_SAN"

Probe = tuple[dict[Any, Any] | None, object, object]


def env_flag(name: str) -> tuple[Probe, Callable[[], bool]]:
    """The ``(env, key, on)`` probe and ``enabled()`` check of ``NAME=1``.

    ``os.environ.get`` costs ~1 microsecond per call (key encode +
    mapping lookup), and the flags guard paths invoked hundreds of
    thousands of times per experiment run.  Reading a flag through the
    environment's underlying dict keeps the check dynamic (tests
    monkeypatch the variables mid-process) at plain-dict-lookup cost.
    """
    try:
        probe: Probe = (
            os.environ._data,  # type: ignore[attr-defined]
            os.environ.encodekey(name),  # type: ignore[attr-defined]
            os.environ.encodevalue("1"),  # type: ignore[attr-defined]
        )
    except AttributeError:  # pragma: no cover - non-CPython environ layout
        probe = (None, name, "1")
    env, key, on = probe

    def enabled() -> bool:
        if env is not None:
            return env.get(key) == on
        return os.environ.get(name, "") == "1"

    enabled.__doc__ = f"True when ``{name}=1`` is set in the environment."
    return probe, enabled


#: Public probes for inlining the flag checks on the hottest call sites
#: (node count caches, pool fixes, op spans).  Usage::
#:
#:     _ENV, _KEY, _ON = DEBUG_PROBE
#:     if _ENV is None or _ENV.get(_KEY) == _ON:
#:         if runtime_checks_enabled():
#:             ... slow verification ...
#:
#: On CPython the common (flag off) case is one dict lookup and one
#: comparison; the ``None`` fallback routes non-CPython layouts through
#: the full function.  The probes stay dynamic because the underlying
#: dict is ``os.environ``'s own mutable storage.
DEBUG_PROBE, runtime_checks_enabled = env_flag(RUNTIME_FLAG)
SAN_PROBE, sanitizer_enabled = env_flag(SANITIZER_FLAG)
_ENV_DATA, _FLAG_KEY, _FLAG_ON = DEBUG_PROBE


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
        if candidate is not None and hasattr(candidate, "_pages") and hasattr(
            candidate, "cost"
        ):
            return candidate
    return None


def _disk_fingerprint(disk: Any) -> tuple[int, int, int]:
    stats = disk.cost.stats
    return (stats.write_calls, stats.pages_written, len(disk._pages))


def pure_read(func: F) -> F:
    """Declare (and under ``REPRO_DEBUG=1`` assert) disk purity.

    The decorated method must not mutate the simulated disk: no page
    writes, pokes, or discards, directly or transitively.  Reading —
    including charged reads through the cost model — is allowed.
    """

    @functools.wraps(func)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        # runtime_checks_enabled() inlined: the wrapper sits on paths hot
        # enough that even one extra function call per invocation shows
        # up in perfbench.
        if _ENV_DATA is not None:
            if _ENV_DATA.get(_FLAG_KEY) != _FLAG_ON:
                return func(self, *args, **kwargs)
        elif not runtime_checks_enabled():
            return func(self, *args, **kwargs)
        disk = _find_disk(self)
        if disk is None:
            return func(self, *args, **kwargs)
        before = _disk_fingerprint(disk)
        result = func(self, *args, **kwargs)
        after = _disk_fingerprint(disk)
        if before != after:
            raise ContractViolationError(
                f"@pure_read method {func.__qualname__} mutated the disk: "
                f"(write_calls, pages_written, pages) went {before} -> {after}"
            )
        return result

    wrapper.__repro_pure_read__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
