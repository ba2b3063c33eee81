"""Hierarchical span/event tracer with exact I/O cost attribution.

A :class:`Tracer` threads through the storage stack: manager operations
open *spans* (``op.append``, ``op.read`` …), lower layers open child spans
(``segio.read``, ``tree.flush`` …), and every physical disk access, retry,
checksum failure, eviction, split, and injected fault is recorded as a
structured *event* attached to the innermost open span.  Because all
simulated cost originates from physical disk calls — each charging
``seek_ms + n_pages * transfer_ms_per_page`` — attributing those calls to
spans attributes *all* of an experiment's cost, exactly.

Design constraints, in order:

1. **Determinism.**  Records carry logical sequence numbers only — never
   wall-clock timestamps — so a trace is a pure function of the workload.
   Tracing the same run twice produces byte-identical JSONL, and
   ``repro-obs diff`` of a run against itself is empty.
2. **Zero observable effect.**  The tracer only *reads* the cost ledgers;
   it never charges anything.  Reports and counters are bit-identical with
   tracing on or off (asserted in tests/test_obs.py).
3. **Picklable hand-off.**  :meth:`Tracer.capture_state` /
   :meth:`Tracer.absorb` let the parallel experiment runner collect
   per-point traces from worker processes and merge them in grid order,
   with span ids and sequence numbers remapped so the merged trace is
   independent of worker count.

The module deliberately imports nothing above :mod:`repro.core`: the disk
and buffer layers import it, so it must sit below them in the layer order.
Ledger objects are therefore duck-typed via protocols rather than
importing :class:`repro.disk.iomodel.IOStats`.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Iterator, Protocol

from repro.core.config import SystemConfig
from repro.core.errors import InvalidArgumentError

from repro.obs.metrics import MetricsRegistry


class SupportsIOCounters(Protocol):
    """Anything shaped like :class:`repro.disk.iomodel.IOStats`."""

    read_calls: int
    write_calls: int
    pages_read: int
    pages_written: int
    retries: int


class SupportsPoolCounters(Protocol):
    """Anything shaped like :class:`repro.buffer.pool.PoolStats`."""

    hits: int
    misses: int
    evictions: int
    dirty_writebacks: int


#: How each physical-I/O event kind updates span counters:
#: kind -> (is_write, is_retry).
_IO_EVENT_KINDS: dict[str, tuple[bool, bool]] = {
    "disk.read": (False, False),
    "disk.write": (True, False),
    "disk.retry.read": (False, True),
    "disk.retry.write": (True, True),
}


class _OpenSpan:
    """Bookkeeping for a span that has been opened but not yet closed."""

    __slots__ = (
        "span_id", "kind", "parent", "seq0", "attrs",
        "read_calls", "write_calls", "pages_read", "pages_written",
        "retries", "self_read_calls", "self_write_calls",
        "self_pages_read", "self_pages_written", "self_retries",
    )

    def __init__(
        self,
        span_id: int,
        kind: str,
        parent: int | None,
        seq0: int,
        attrs: dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.kind = kind
        self.parent = parent
        self.seq0 = seq0
        self.attrs = attrs
        self.read_calls = 0
        self.write_calls = 0
        self.pages_read = 0
        self.pages_written = 0
        self.retries = 0
        self.self_read_calls = 0
        self.self_write_calls = 0
        self.self_pages_read = 0
        self.self_pages_written = 0
        self.self_retries = 0


class Tracer:
    """Collects spans, events, and metrics for one run.

    The tracer is *installed* by handing it to a
    :class:`repro.core.env.StorageEnvironment` (directly or ambiently via
    :mod:`repro.obs.runtime`); instrumented layers then guard every
    recording site with ``if tracer is not None`` so the disabled path
    costs one attribute load and a comparison.
    """

    def __init__(self, meta: dict[str, object] | None = None) -> None:
        self.meta: dict[str, object] = dict(meta or {})
        self.records: list[dict[str, object]] = []
        self.metrics = MetricsRegistry()
        self.config: SystemConfig | None = None
        self._stack: list[_OpenSpan] = []
        self._next_id = 1
        self._next_seq = 0
        self._ledgers: list[
            tuple[SupportsIOCounters, SupportsPoolCounters | None]
        ] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        config: SystemConfig,
        io_stats: SupportsIOCounters,
        pool_stats: SupportsPoolCounters | None = None,
    ) -> None:
        """Register an environment's cost ledgers with this tracer.

        The first bound configuration supplies the cost constants recorded
        in the trace header; ledgers are folded into metric counters when
        the trace is finalized (:meth:`fold_ledgers`).
        """
        if self.config is None:
            self.config = config
        self._ledgers.append((io_stats, pool_stats))

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` at top level."""
        return self._stack[-1].span_id if self._stack else None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, kind: str, **attrs: object) -> Iterator[None]:
        """Open a child span of the innermost open span."""
        open_span = _OpenSpan(
            span_id=self._next_id,
            kind=kind,
            parent=self.current_span_id,
            seq0=self._next_seq,
            attrs=attrs,
        )
        self._next_id += 1
        self._next_seq += 1
        self._stack.append(open_span)
        try:
            yield
        finally:
            popped = self._stack.pop()
            self._close_span(popped)

    def _close_span(self, span: _OpenSpan) -> None:
        record: dict[str, object] = {
            "t": "span",
            "id": span.span_id,
            "parent": span.parent,
            "kind": span.kind,
            "seq0": span.seq0,
            "seq1": self._next_seq,
            "read_calls": span.read_calls,
            "write_calls": span.write_calls,
            "pages_read": span.pages_read,
            "pages_written": span.pages_written,
            "retries": span.retries,
            "self_read_calls": span.self_read_calls,
            "self_write_calls": span.self_write_calls,
            "self_pages_read": span.self_pages_read,
            "self_pages_written": span.self_pages_written,
            "self_retries": span.self_retries,
        }
        self._next_seq += 1
        if span.attrs:
            record["attrs"] = span.attrs
        self.records.append(record)
        self.metrics.inc(f"span.{span.kind}")
        if span.kind.startswith("op.") and self.config is not None:
            calls = span.read_calls + span.write_calls
            pages = span.pages_read + span.pages_written
            cost_ms = (
                calls * self.config.seek_ms
                + pages * self.config.transfer_ms_per_page
            )
            self.metrics.observe(f"{span.kind}.cost_ms", cost_ms)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, kind: str, **attrs: object) -> None:
        """Record a structured event attached to the innermost open span."""
        record: dict[str, object] = {
            "t": "event",
            "seq": self._next_seq,
            "span": self.current_span_id,
            "kind": kind,
        }
        self._next_seq += 1
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        self.metrics.inc(f"event.{kind}")

    def io_event(self, kind: str, start: int, n_pages: int) -> None:
        """Record one physical disk access and attribute it to open spans.

        ``kind`` must be one of ``disk.read``, ``disk.write``,
        ``disk.retry.read``, ``disk.retry.write``.  The access is added to
        the *inclusive* counters of every open span and to the *self*
        counters of the innermost one, which is what makes per-span cost
        attribution exact: summing ``self`` counters over all spans (plus
        untraced events) reproduces the disk ledger.
        """
        try:
            is_write, is_retry = _IO_EVENT_KINDS[kind]
        except KeyError:
            raise InvalidArgumentError(f"unknown io_event kind: {kind!r}") from None
        record: dict[str, object] = {
            "t": "event",
            "seq": self._next_seq,
            "span": self.current_span_id,
            "kind": kind,
            "start": start,
            "pages": n_pages,
        }
        self._next_seq += 1
        self.records.append(record)
        self.metrics.inc(f"event.{kind}")
        stack = self._stack
        if is_write:
            for open_span in stack:
                open_span.write_calls += 1
                open_span.pages_written += n_pages
        else:
            for open_span in stack:
                open_span.read_calls += 1
                open_span.pages_read += n_pages
        if is_retry:
            for open_span in stack:
                open_span.retries += 1
        if stack:
            top = stack[-1]
            if is_write:
                top.self_write_calls += 1
                top.self_pages_written += n_pages
            else:
                top.self_read_calls += 1
                top.self_pages_read += n_pages
            if is_retry:
                top.self_retries += 1

    # ------------------------------------------------------------------
    # Finalization and parallel merge
    # ------------------------------------------------------------------
    def fold_ledgers(self) -> None:
        """Fold bound cost ledgers into metric counters (idempotent).

        Called when the trace is exported or handed across processes; the
        ledgers hold the authoritative totals, so the fold happens once,
        at the end, rather than per-access on the hot path.
        """
        ledgers, self._ledgers = self._ledgers, []
        for io_stats, pool_stats in ledgers:
            self.metrics.inc("io.read_calls", io_stats.read_calls)
            self.metrics.inc("io.write_calls", io_stats.write_calls)
            self.metrics.inc("io.pages_read", io_stats.pages_read)
            self.metrics.inc("io.pages_written", io_stats.pages_written)
            self.metrics.inc("io.retries", io_stats.retries)
            if pool_stats is not None:
                self.metrics.inc("pool.hits", pool_stats.hits)
                self.metrics.inc("pool.misses", pool_stats.misses)
                self.metrics.inc("pool.evictions", pool_stats.evictions)
                self.metrics.inc(
                    "pool.dirty_writebacks", pool_stats.dirty_writebacks
                )

    def capture_state(self) -> dict[str, object]:
        """Snapshot this tracer as a picklable dict for cross-process merge."""
        if self._stack:
            raise InvalidArgumentError(
                "cannot capture tracer state with open spans: "
                + ", ".join(s.kind for s in self._stack)
            )
        self.fold_ledgers()
        return {
            "records": self.records,
            "metrics": self.metrics.to_dict(),
            "next_id": self._next_id,
            "next_seq": self._next_seq,
        }

    def absorb(self, state: dict[str, object]) -> None:
        """Merge a captured worker state into this tracer.

        Span ids and sequence numbers are offset past this tracer's own,
        so absorbing worker states in grid-point order yields a merged
        trace that does not depend on how points were scheduled.
        """
        if self._stack:
            raise InvalidArgumentError("cannot absorb into a tracer with open spans")
        id_offset = self._next_id - 1
        seq_offset = self._next_seq
        records: list[dict[str, object]] = state["records"]  # type: ignore[assignment]
        for record in records:
            remapped = dict(record)
            if remapped["t"] == "span":
                remapped["id"] = remapped["id"] + id_offset  # type: ignore[operator]
                if remapped["parent"] is not None:
                    remapped["parent"] = remapped["parent"] + id_offset  # type: ignore[operator]
                remapped["seq0"] = remapped["seq0"] + seq_offset  # type: ignore[operator]
                remapped["seq1"] = remapped["seq1"] + seq_offset  # type: ignore[operator]
            elif remapped["t"] == "event":
                if remapped["span"] is not None:
                    remapped["span"] = remapped["span"] + id_offset  # type: ignore[operator]
                remapped["seq"] = remapped["seq"] + seq_offset  # type: ignore[operator]
            self.records.append(remapped)
        self._next_id += int(state["next_id"]) - 1  # type: ignore[call-overload]
        self._next_seq += int(state["next_seq"])  # type: ignore[call-overload]
        self.metrics.merge(MetricsRegistry.from_dict(state["metrics"]))  # type: ignore[arg-type]


#: The one shared no-op context used wherever tracing is off.
NULL_SPAN: ContextManager[None] = contextlib.nullcontext()


def span_of(
    tracer: Tracer | None, kind: str, **attrs: object
) -> ContextManager[None]:
    """``tracer.span(kind, **attrs)``, or a no-op when tracing is off.

    Layers open spans on hot paths, so the disabled case hands back one
    shared null context and allocates nothing per call.
    """
    if tracer is None:
        return NULL_SPAN
    return tracer.span(kind, **attrs)
