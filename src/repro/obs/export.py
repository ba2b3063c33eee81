"""JSONL trace export, loading, and schema validation.

A trace file is newline-delimited JSON with exactly one header line, any
number of span/event records, and one trailing metrics line:

``{"t": "header", "version": 1, "seek_ms": …, "transfer_ms_per_page": …,
"meta": {…}}``
    Cost-model constants captured from the traced environment, so a
    reader can reconstruct simulated milliseconds from integer call/page
    counts without access to the original configuration.

``{"t": "span", "id", "parent", "kind", "seq0", "seq1", read/write
call+page counters, their "self_…" variants, optional "attrs"}``
    Emitted when the span *closes*, so children precede their parents in
    the file; readers index spans by id before resolving parents.

``{"t": "event", "seq", "span", "kind", optional "start"/"pages",
optional "attrs"}``
    Physical I/O events carry ``start`` (first page id) and ``pages``.

``{"t": "metrics", "counters", "gauges", "histograms"}``
    The tracer's folded :class:`~repro.obs.metrics.MetricsRegistry`.

Records contain logical sequence numbers only — no timestamps — so the
same run always serializes to byte-identical JSONL.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.errors import InvalidArgumentError, TraceError

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import _IO_EVENT_KINDS, Tracer

#: Version stamped into every trace header.
TRACE_FORMAT_VERSION = 1

#: A span's fields that must be non-negative integers.
_SPAN_COUNTS = (
    "id", "seq0", "seq1",
    "read_calls", "write_calls", "pages_read", "pages_written", "retries",
    "self_read_calls", "self_write_calls",
    "self_pages_read", "self_pages_written", "self_retries",
)
_EVENT_REQUIRED = ("seq", "span", "kind")


@dataclasses.dataclass
class TraceDocument:
    """An in-memory trace: header + records + metrics."""

    header: dict[str, object]
    records: list[dict[str, object]]
    metrics: MetricsRegistry

    @property
    def seek_ms(self) -> float:
        """Per-call seek cost recorded in the header."""
        return float(self.header["seek_ms"])  # type: ignore[arg-type]

    @property
    def transfer_ms_per_page(self) -> float:
        """Per-page transfer cost recorded in the header."""
        return float(self.header["transfer_ms_per_page"])  # type: ignore[arg-type]

    def spans(self) -> list[dict[str, object]]:
        """All span records, in file (close) order."""
        return [r for r in self.records if r["t"] == "span"]

    def events(self) -> list[dict[str, object]]:
        """All event records, in file (sequence) order."""
        return [r for r in self.records if r["t"] == "event"]


def dump_trace(tracer: Tracer, path: str | Path) -> None:
    """Finalize ``tracer`` and write it to ``path`` as JSONL."""
    tracer.fold_ledgers()
    config = tracer.config if tracer.config is not None else SystemConfig()
    header: dict[str, object] = {
        "t": "header",
        "version": TRACE_FORMAT_VERSION,
        "seek_ms": config.seek_ms,
        "transfer_ms_per_page": config.transfer_ms_per_page,
        "meta": tracer.meta,
    }
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in tracer.records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        trailer = {"t": "metrics", **tracer.metrics.to_dict()}
        handle.write(json.dumps(trailer, sort_keys=True) + "\n")


def _parse(path: str | Path) -> TraceDocument:
    """Read a trace's records, raising :class:`TraceError` on the first
    line that is not one."""
    header: dict[str, object] | None = None
    metrics: MetricsRegistry | None = None
    records: list[dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict) or "t" not in record:
                raise TraceError(f"{path}:{lineno}: record is not an object with 't'")
            kind = record["t"]
            if kind == "header":
                if header is not None:
                    raise TraceError(f"{path}:{lineno}: duplicate header")
                header = record
            elif kind == "metrics":
                if metrics is not None:
                    raise TraceError(f"{path}:{lineno}: duplicate metrics trailer")
                try:
                    metrics = MetricsRegistry.from_dict(record)
                except (InvalidArgumentError, LookupError, TypeError,
                        ValueError, AttributeError) as exc:
                    raise TraceError(f"{path}:{lineno}: bad metrics: {exc!r}") from exc
            elif kind in ("span", "event"):
                records.append(record)
            else:
                raise TraceError(f"{path}:{lineno}: unknown record type {kind!r}")
    if header is None:
        raise TraceError(f"{path}: missing header line")
    if metrics is None:
        raise TraceError(f"{path}: missing metrics trailer")
    return TraceDocument(header=header, records=records, metrics=metrics)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _resolves(ref: object, span_ids: set[object]) -> bool:
    """True for ``None`` (no span) or one of ``span_ids``."""
    return isinstance(ref, (int, type(None))) and ref in span_ids


def _problems(document: TraceDocument) -> list[str]:
    """Every way a parsed trace breaks the schema."""
    problems: list[str] = []
    header = document.header
    if header.get("version") != TRACE_FORMAT_VERSION:
        problems.append(
            f"header version {header.get('version')!r} != {TRACE_FORMAT_VERSION}"
        )
    for field in ("seek_ms", "transfer_ms_per_page"):
        if not isinstance(header.get(field), (int, float)):
            problems.append(f"header field {field!r} missing or non-numeric")
    # A span closes before its parent, so walking the file backwards, a
    # span's parent (if any) is already among the ids seen.
    span_ids: set[object] = {None}
    for record in reversed(document.spans()):
        bad = [f for f in _SPAN_COUNTS if not _is_count(record.get(f))]
        bad += [f for f in ("parent", "kind") if f not in record]
        if bad:
            problems.append(f"span record missing or bad fields: {', '.join(bad)}")
        elif record["id"] in span_ids:
            problems.append(f"duplicate span id {record['id']}")
        elif not _resolves(record["parent"], span_ids):
            problems.append(
                f"span {record['id']} has parent {record['parent']!r}, "
                "which is no span closed after it"
            )
        if not bad:
            span_ids.add(record["id"])
    last_seq = -1
    for record in document.events():
        missing = [f for f in _EVENT_REQUIRED if f not in record]
        if missing:
            problems.append(f"event record missing fields: {', '.join(missing)}")
            continue
        kind = str(record["kind"])
        if not _resolves(record["span"], span_ids):
            problems.append(
                f"event {kind!r} references unknown span {record['span']!r}"
            )
        seq = record["seq"]
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                f"event sequence numbers not strictly increasing at seq {seq!r}"
            )
        else:
            last_seq = seq
        pages = record.get("pages")
        if (kind in _IO_EVENT_KINDS or "pages" in record) and not (
            _is_count(pages) and pages  # a physical access moves >= 1 page
        ):
            problems.append(f"event {kind!r} has non-positive pages {pages!r}")
    return problems


def load_trace(path: str | Path) -> TraceDocument:
    """Parse a JSONL trace file, raising :class:`TraceError` that names
    the first problem :func:`validate_trace` reports."""
    document = _parse(path)
    problems = _problems(document)
    if problems:
        raise TraceError(f"{path}: {problems[0]}")
    return document


def validate_trace(path: str | Path) -> list[str]:
    """Check a trace file against the schema; return a list of problems.

    An empty list means the trace is well-formed: parseable, one header
    and one metrics line, all required fields present, span ids unique,
    every parent/span reference resolvable (a parent closes after its
    child), and event sequence numbers strictly increasing.
    """
    try:
        return _problems(_parse(path))
    except (TraceError, OSError) as exc:
        return [str(exc)]
