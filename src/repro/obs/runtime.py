"""Ambient tracer installation.

Most callers hand a :class:`~repro.obs.tracer.Tracer` to a
:class:`~repro.core.env.StorageEnvironment` explicitly.  Two situations
need an *ambient* mechanism instead:

* the experiment CLI traces whole grids without threading a tracer
  through every ``build_object``/``WorkloadRunner`` signature — it
  installs one here and every environment constructed underneath picks
  it up;
* CI runs the entire test suite with ``REPRO_CHECKS=1``, which (among
  the other runtime checks of :mod:`repro.lint.contracts`) gives every
  environment a private throwaway tracer so all tracing code paths
  execute everywhere, and the suite itself becomes the tracing-on/off
  invariance check.

The installed-tracer stack is module-level mutable state, which the
reproduction otherwise avoids; it is confined to this module, LIFO, and
normally managed through the :func:`installed` context manager.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.core.errors import InvalidArgumentError
from repro.lint.contracts import checks_enabled
from repro.obs.tracer import Tracer

#: LIFO stack of ambiently installed tracers (innermost last).
_TRACER_STACK: list[Tracer] = []


def install(tracer: Tracer) -> None:
    """Push a tracer; environments constructed from now on pick it up."""
    _TRACER_STACK.append(tracer)


def uninstall(tracer: Tracer) -> None:
    """Pop a previously installed tracer (must be the innermost one)."""
    if not _TRACER_STACK or _TRACER_STACK[-1] is not tracer:
        raise InvalidArgumentError(
            "uninstall order violation: tracer is not the innermost installed one"
        )
    _TRACER_STACK.pop()


def current() -> Tracer | None:
    """The innermost ambiently installed tracer, if any."""
    return _TRACER_STACK[-1] if _TRACER_STACK else None


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` ambiently for the duration of the block."""
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall(tracer)


def resolve_tracer(explicit: Tracer | None) -> Tracer | None:
    """Pick the tracer a new environment should use.

    Preference order: the explicitly passed tracer, then the innermost
    ambient one, then — only under ``REPRO_CHECKS=1`` — a fresh
    private tracer so the tracing paths run even in untraced tests.
    """
    if explicit is not None:
        return explicit
    ambient = current()
    if ambient is not None:
        return ambient
    if checks_enabled():
        return Tracer()
    return None
