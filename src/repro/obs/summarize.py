"""Trace analysis: cost summaries, trace diffs, and flamegraph export.

All three views are derived from the same attribution rule: every
physical disk access in a trace carries integer call/page counts and is
charged to the *innermost* open span (its ``self_…`` counters).  Summing
self costs over all spans, plus accesses recorded outside any span,
therefore reproduces the run's total cost exactly — the same arithmetic
as :meth:`repro.disk.iomodel.IOStats.elapsed_ms`, using the cost
constants stored in the trace header.

Costs here are computed as ``calls * seek_ms + pages *
transfer_ms_per_page`` in that exact order so that summary totals compare
bit-for-bit against experiment reports (asserted in tests/test_obs.py).
"""

from __future__ import annotations

from repro.obs.export import TraceDocument
from repro.obs.tracer import _IO_EVENT_KINDS

#: Synthetic frame for physical accesses recorded outside any span.
UNTRACED = "(untraced)"


def _cost_ms(document: TraceDocument, calls: int, pages: int) -> float:
    return calls * document.seek_ms + pages * document.transfer_ms_per_page


def _frame_name(span: dict[str, object]) -> str:
    """Display name for a span: kind, plus the scheme attribute if set."""
    kind = str(span["kind"])
    attrs = span.get("attrs")
    if isinstance(attrs, dict) and "scheme" in attrs:
        return f"{kind}:{attrs['scheme']}"
    return kind


def fold_io_totals(document: TraceDocument) -> dict[str, int]:
    """Reconstruct disk-ledger counters from the trace's I/O events.

    Retried attempts count in their base counters *and* in ``retries`` —
    mirroring :class:`~repro.disk.iomodel.CostModel` — so the result is
    comparable field-for-field with the environment's ``IOStats``.
    """
    totals = {
        "read_calls": 0,
        "write_calls": 0,
        "pages_read": 0,
        "pages_written": 0,
        "retries": 0,
    }
    for event in document.events():
        io_shape = _IO_EVENT_KINDS.get(str(event["kind"]))
        if io_shape is None:
            continue
        is_write, is_retry = io_shape
        pages = int(event["pages"])  # type: ignore[call-overload]
        if is_write:
            totals["write_calls"] += 1
            totals["pages_written"] += pages
        else:
            totals["read_calls"] += 1
            totals["pages_read"] += pages
        if is_retry:
            totals["retries"] += 1
    return totals


def total_cost_ms(document: TraceDocument) -> float:
    """Total simulated cost of every physical access in the trace."""
    totals = fold_io_totals(document)
    calls = totals["read_calls"] + totals["write_calls"]
    pages = totals["pages_read"] + totals["pages_written"]
    return _cost_ms(document, calls, pages)


def _untraced_counters(document: TraceDocument) -> dict[str, int]:
    """Fold I/O events that fired with no span open."""
    counters = {"calls": 0, "pages": 0, "retries": 0}
    for event in document.events():
        if event["span"] is not None:
            continue
        io_shape = _IO_EVENT_KINDS.get(str(event["kind"]))
        if io_shape is None:
            continue
        counters["calls"] += 1
        counters["pages"] += int(event["pages"])  # type: ignore[call-overload]
        if io_shape[1]:
            counters["retries"] += 1
    return counters


def span_kind_table(document: TraceDocument) -> dict[str, dict[str, object]]:
    """Aggregate spans by kind, keyed by frame name.

    ``self_cost_ms`` is the exact, non-overlapping decomposition (summing
    it over all rows plus the untraced row gives the trace total);
    ``incl_cost_ms`` includes descendants and may overlap across rows.
    """
    table: dict[str, dict[str, object]] = {}
    for span in document.spans():
        name = _frame_name(span)
        row = table.get(name)
        if row is None:
            row = table[name] = {
                "count": 0,
                "self_calls": 0, "self_pages": 0, "self_retries": 0,
                "incl_calls": 0, "incl_pages": 0, "incl_retries": 0,
            }
        row["count"] += 1  # type: ignore[operator]
        row["self_calls"] += (  # type: ignore[operator]
            span["self_read_calls"] + span["self_write_calls"]  # type: ignore[operator]
        )
        row["self_pages"] += (  # type: ignore[operator]
            span["self_pages_read"] + span["self_pages_written"]  # type: ignore[operator]
        )
        row["self_retries"] += span["self_retries"]  # type: ignore[operator]
        row["incl_calls"] += span["read_calls"] + span["write_calls"]  # type: ignore[operator]
        row["incl_pages"] += span["pages_read"] + span["pages_written"]  # type: ignore[operator]
        row["incl_retries"] += span["retries"]  # type: ignore[operator]
    for row in table.values():
        row["self_cost_ms"] = _cost_ms(
            document, int(row["self_calls"]), int(row["self_pages"])  # type: ignore[call-overload]
        )
        row["incl_cost_ms"] = _cost_ms(
            document, int(row["incl_calls"]), int(row["incl_pages"])  # type: ignore[call-overload]
        )
    untraced = _untraced_counters(document)
    if untraced["calls"]:
        table[UNTRACED] = {
            "count": 0,
            "self_calls": untraced["calls"],
            "self_pages": untraced["pages"],
            "self_retries": untraced["retries"],
            "incl_calls": untraced["calls"],
            "incl_pages": untraced["pages"],
            "incl_retries": untraced["retries"],
            "self_cost_ms": _cost_ms(document, untraced["calls"], untraced["pages"]),
            "incl_cost_ms": _cost_ms(document, untraced["calls"], untraced["pages"]),
        }
    return table


def event_kind_counts(document: TraceDocument) -> dict[str, int]:
    """Count events by kind."""
    counts: dict[str, int] = {}
    for event in document.events():
        kind = str(event["kind"])
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def summarize(document: TraceDocument) -> dict[str, object]:
    """Build the summary structure rendered by ``repro-obs summary``."""
    totals = fold_io_totals(document)
    calls = totals["read_calls"] + totals["write_calls"]
    pages = totals["pages_read"] + totals["pages_written"]
    table = span_kind_table(document)
    return {
        "totals": {
            **totals,
            "io_calls": calls,
            "pages_transferred": pages,
            "seek_ms": calls * document.seek_ms,
            "transfer_ms": pages * document.transfer_ms_per_page,
            "cost_ms": _cost_ms(document, calls, pages),
        },
        "span_kinds": {name: table[name] for name in sorted(table)},
        "events": {
            kind: count
            for kind, count in sorted(event_kind_counts(document).items())
        },
        "metrics": document.metrics.to_dict(),
    }


def render_summary(document: TraceDocument) -> str:
    """Human-readable summary text for the CLI."""
    summary = summarize(document)
    totals: dict[str, object] = summary["totals"]  # type: ignore[assignment]
    lines = [
        "trace summary",
        f"  total cost      {totals['cost_ms']:.1f} ms "
        f"(seek {totals['seek_ms']:.1f} + transfer {totals['transfer_ms']:.1f})",
        f"  io calls        {totals['io_calls']} "
        f"({totals['read_calls']} reads, {totals['write_calls']} writes, "
        f"{totals['retries']} retried)",
        f"  pages           {totals['pages_transferred']} "
        f"({totals['pages_read']} read, {totals['pages_written']} written)",
        "",
        f"  {'span kind':<28} {'count':>7} {'self ms':>12} {'incl ms':>12}",
    ]
    span_kinds: dict[str, dict[str, object]] = summary["span_kinds"]  # type: ignore[assignment]
    ordered = sorted(
        span_kinds.items(),
        key=lambda item: (-float(item[1]["self_cost_ms"]), item[0]),  # type: ignore[arg-type]
    )
    for name, row in ordered:
        lines.append(
            f"  {name:<28} {row['count']:>7} "
            f"{row['self_cost_ms']:>12.1f} {row['incl_cost_ms']:>12.1f}"
        )
    events: dict[str, int] = summary["events"]  # type: ignore[assignment]
    if events:
        lines.append("")
        lines.append(f"  {'event kind':<28} {'count':>7}")
        for kind, count in events.items():
            lines.append(f"  {kind:<28} {count:>7}")
    return "\n".join(lines)


def diff_documents(
    old: TraceDocument, new: TraceDocument
) -> dict[str, dict[str, object]]:
    """Per-span-kind self-cost deltas between two traces.

    Returns only the kinds whose count or self cost changed, in kind
    order; diffing a trace against itself returns an empty dict.
    """
    old_table = span_kind_table(old)
    new_table = span_kind_table(new)
    deltas: dict[str, dict[str, object]] = {}
    for name in sorted(set(old_table) | set(new_table)):
        old_row = old_table.get(name)
        new_row = new_table.get(name)
        old_cost = float(old_row["self_cost_ms"]) if old_row else 0.0  # type: ignore[arg-type]
        new_cost = float(new_row["self_cost_ms"]) if new_row else 0.0  # type: ignore[arg-type]
        old_count = int(old_row["count"]) if old_row else 0  # type: ignore[call-overload]
        new_count = int(new_row["count"]) if new_row else 0  # type: ignore[call-overload]
        if old_cost == new_cost and old_count == new_count:
            continue
        deltas[name] = {
            "old_count": old_count,
            "new_count": new_count,
            "old_cost_ms": old_cost,
            "new_cost_ms": new_cost,
            "delta_ms": new_cost - old_cost,
        }
    return deltas


def render_diff(old: TraceDocument, new: TraceDocument) -> str:
    """Human-readable diff text for the CLI ('' when traces agree)."""
    deltas = diff_documents(old, new)
    if not deltas:
        return ""
    lines = [
        f"  {'span kind':<28} {'count':>13} {'old ms':>12} {'new ms':>12} {'delta ms':>12}"
    ]
    ordered = sorted(
        deltas.items(),
        key=lambda item: (-abs(float(item[1]["delta_ms"])), item[0]),  # type: ignore[arg-type]
    )
    for name, row in ordered:
        counts = f"{row['old_count']}->{row['new_count']}"
        lines.append(
            f"  {name:<28} {counts:>13} {row['old_cost_ms']:>12.1f} "
            f"{row['new_cost_ms']:>12.1f} {row['delta_ms']:>+12.1f}"
        )
    return "\n".join(lines)


def collapsed_stacks(document: TraceDocument) -> list[str]:
    """Flamegraph-ready collapsed-stack lines, ``frame;frame;... value``.

    The value is each span's *self* cost in integer microseconds of
    simulated time (standard flamegraph tools expect integer sample
    counts).  Lines are sorted for deterministic output.
    """
    spans_by_id = {span["id"]: span for span in document.spans()}
    weights: dict[str, int] = {}
    for span in document.spans():
        self_calls = int(span["self_read_calls"]) + int(span["self_write_calls"])  # type: ignore[call-overload]
        self_pages = int(span["self_pages_read"]) + int(span["self_pages_written"])  # type: ignore[call-overload]
        if self_calls == 0 and self_pages == 0:
            continue
        frames = [_frame_name(span)]
        parent = span["parent"]
        while parent is not None:
            parent_span = spans_by_id[parent]
            frames.append(_frame_name(parent_span))
            parent = parent_span["parent"]
        stack = ";".join(reversed(frames))
        cost_us = round(_cost_ms(document, self_calls, self_pages) * 1000)
        weights[stack] = weights.get(stack, 0) + cost_us
    untraced = _untraced_counters(document)
    if untraced["calls"]:
        cost_us = round(
            _cost_ms(document, untraced["calls"], untraced["pages"]) * 1000
        )
        weights[UNTRACED] = weights.get(UNTRACED, 0) + cost_us
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]
