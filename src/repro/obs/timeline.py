"""Deterministic time-series sampling: the store's vitals over time.

The tracer answers *what did this run do*; the timeline answers *how
did it change as it ran*.  A :class:`TimelineSampler` hooks the one
per-op cost measurement site (the batch engine's dispatch loop, which
every submitted op batch — workload windows, builds, trace replays —
runs through) and:

* accumulates per-op simulated costs into fixed log-bucketed latency
  histograms keyed ``latency.<op>.<scheme>.shard<N>`` — percentiles
  (p50/p95/p99) derive from bucket counts alone;
* emits a snapshot record every *K* ops or *S* simulated milliseconds,
  evaluated only at op/batch boundaries — cumulative op count,
  simulated time, and per-kind op mix at that point.

Like traces, timelines contain **no wall-clock time and no
randomness**: a sample's position is its logical sequence number, its
clock is simulated milliseconds.  Two runs of the same workload produce
byte-identical timeline files.

Sampling is strictly observational: the sampler only *reads* costs the
measurement paths already computed, so reports, IOStats, pool counters,
and disk images are bit-identical with sampling on or off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.core.errors import InvalidArgumentError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.taxonomy import is_known_metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig

#: Format version of the timeline JSONL payload.
TIMELINE_FORMAT_VERSION = 1

#: Default sampling cadence: one snapshot per 256 completed operations.
DEFAULT_EVERY_OPS = 256

#: Cost-per-op growth ratio (late half vs early half) that flags drift.
DEFAULT_DRIFT_THRESHOLD = 1.5


class TimelineSampler:
    """Accumulates per-op costs and emits deterministic snapshots."""

    def __init__(
        self,
        every_ops: int | None = DEFAULT_EVERY_OPS,
        every_sim_ms: float | None = None,
        meta: dict[str, object] | None = None,
    ) -> None:
        if every_ops is None and every_sim_ms is None:
            raise InvalidArgumentError(
                "timeline sampler needs every_ops or every_sim_ms"
            )
        if every_ops is not None and every_ops < 1:
            raise InvalidArgumentError("every_ops must be positive")
        if every_sim_ms is not None and every_sim_ms <= 0:
            raise InvalidArgumentError("every_sim_ms must be positive")
        self.every_ops = every_ops
        self.every_sim_ms = every_sim_ms
        self.meta = dict(meta or {})
        self.seek_ms: float | None = None
        self.transfer_ms_per_page: float | None = None
        #: Snapshot records, in logical sequence order.
        self.samples: list[dict[str, object]] = []
        #: ``latency.*`` histograms (the registry's only content here).
        self.metrics = MetricsRegistry()
        self.ops = 0
        self.sim_ms = 0.0
        self.kind_counts: dict[str, int] = {}
        self._next_seq = 1
        self._ops_at_sample = 0
        self._sim_at_sample = 0.0

    # ------------------------------------------------------------------
    # Binding and recording
    # ------------------------------------------------------------------
    def bind(self, config: "SystemConfig") -> None:
        """Adopt the cost constants (first environment wins, must agree)."""
        if self.seek_ms is None:
            self.seek_ms = config.seek_ms
            self.transfer_ms_per_page = config.transfer_ms_per_page
        elif (
            self.seek_ms != config.seek_ms
            or self.transfer_ms_per_page != config.transfer_ms_per_page
        ):
            raise InvalidArgumentError(
                "timeline sampler bound to environments with different "
                "cost constants"
            )

    def record_op(
        self, kind: str, scheme: str, shard: int, cost_ms: float
    ) -> None:
        """Account one completed operation (an op boundary)."""
        self.ops += 1
        self.sim_ms += cost_ms
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.metrics.observe(
            f"latency.{kind}.{scheme}.shard{shard}", cost_ms
        )
        self._maybe_sample()

    def tick(self) -> None:
        """A batch/window boundary: sample if a cadence threshold passed."""
        self._maybe_sample(trigger="tick")

    def flush(self) -> None:
        """Force a final snapshot covering any unsampled tail."""
        if self.ops > self._ops_at_sample:
            self._snapshot("flush")

    def _maybe_sample(self, trigger: str | None = None) -> None:
        if (
            self.every_ops is not None
            and self.ops - self._ops_at_sample >= self.every_ops
        ):
            self._snapshot(trigger or "ops")
        elif (
            self.every_sim_ms is not None
            and self.sim_ms - self._sim_at_sample >= self.every_sim_ms
        ):
            self._snapshot(trigger or "sim_ms")

    def _snapshot(self, trigger: str) -> None:
        self.samples.append({
            "t": "sample",
            "seq": self._next_seq,
            "trigger": trigger,
            "ops": self.ops,
            "sim_ms": self.sim_ms,
            "kinds": {
                kind: self.kind_counts[kind]
                for kind in sorted(self.kind_counts)
            },
        })
        self._next_seq += 1
        self._ops_at_sample = self.ops
        self._sim_at_sample = self.sim_ms


# ----------------------------------------------------------------------
# Ambient installation (mirrors repro.obs.runtime for tracers)
# ----------------------------------------------------------------------
_SAMPLER_STACK: list[TimelineSampler] = []


def install(sampler: TimelineSampler) -> None:
    """Push an ambient sampler; new environments pick it up."""
    _SAMPLER_STACK.append(sampler)


def uninstall(sampler: TimelineSampler) -> None:
    """Pop the ambient sampler (must be the innermost one)."""
    if not _SAMPLER_STACK or _SAMPLER_STACK[-1] is not sampler:
        raise InvalidArgumentError(
            "uninstall order violation: sampler is not the innermost"
        )
    _SAMPLER_STACK.pop()


def current() -> TimelineSampler | None:
    """The innermost ambiently installed sampler, if any."""
    return _SAMPLER_STACK[-1] if _SAMPLER_STACK else None


@contextlib.contextmanager
def installed(sampler: TimelineSampler) -> Iterator[TimelineSampler]:
    """Context manager: install for the duration of the block."""
    install(sampler)
    try:
        yield sampler
    finally:
        uninstall(sampler)


def resolve_sampler(
    explicit: TimelineSampler | None,
) -> TimelineSampler | None:
    """Explicit sampler wins; otherwise the ambient one (or none)."""
    return explicit if explicit is not None else current()


# ----------------------------------------------------------------------
# Export / load / validate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TimelineDocument:
    """A parsed timeline file."""

    header: dict[str, object]
    samples: list[dict[str, object]]
    latency: dict[str, Histogram]
    summary: dict[str, object]


def dump_timeline(sampler: TimelineSampler, path: str | Path) -> None:
    """Write the sampler's timeline as deterministic JSONL."""
    sampler.flush()
    lines = [json.dumps({
        "t": "header",
        "version": TIMELINE_FORMAT_VERSION,
        "every_ops": sampler.every_ops,
        "every_sim_ms": sampler.every_sim_ms,
        "seek_ms": sampler.seek_ms,
        "transfer_ms_per_page": sampler.transfer_ms_per_page,
        "meta": sampler.meta,
    }, sort_keys=True)]
    lines.extend(
        json.dumps(sample, sort_keys=True) for sample in sampler.samples
    )
    histograms = sampler.metrics.histograms
    lines.append(json.dumps({
        "t": "latency",
        "histograms": {
            name: {
                **histograms[name].to_dict(),
                **histograms[name].percentiles(),
            }
            for name in sorted(histograms)
        },
    }, sort_keys=True))
    lines.append(json.dumps({
        "t": "summary",
        "ops": sampler.ops,
        "sim_ms": sampler.sim_ms,
        "samples": len(sampler.samples),
        "kinds": {
            kind: sampler.kind_counts[kind]
            for kind in sorted(sampler.kind_counts)
        },
    }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_timeline(path: str | Path) -> TimelineDocument:
    """Parse a timeline file written by :func:`dump_timeline`."""
    header: dict[str, object] = {}
    samples: list[dict[str, object]] = []
    latency: dict[str, Histogram] = {}
    summary: dict[str, object] = {}
    for line_no, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(
                f"{path}:{line_no}: not valid JSON: {exc}"
            ) from None
        kind = record.get("t")
        if kind == "header":
            header = record
        elif kind == "sample":
            samples.append(record)
        elif kind == "latency":
            for name, payload in record.get("histograms", {}).items():
                latency[name] = Histogram.from_dict(payload)
        elif kind == "summary":
            summary = record
        else:
            raise InvalidArgumentError(
                f"{path}:{line_no}: unknown record type {kind!r}"
            )
    return TimelineDocument(header, samples, latency, summary)


def validate_timeline(document: TimelineDocument) -> list[str]:
    """Structural checks; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not document.header:
        problems.append("missing header record")
    elif document.header.get("version") != TIMELINE_FORMAT_VERSION:
        problems.append(
            f"unsupported version {document.header.get('version')!r}"
        )
    last_seq = 0
    last_ops = 0
    last_sim = -1.0
    for sample in document.samples:
        for field in ("seq", "ops", "sim_ms", "kinds", "trigger"):
            if field not in sample:
                problems.append(f"sample missing field {field!r}")
                break
        else:
            if sample["seq"] != last_seq + 1:
                problems.append(
                    f"sample seq {sample['seq']} not contiguous "
                    f"after {last_seq}"
                )
            if sample["ops"] < last_ops:
                problems.append(
                    f"sample ops {sample['ops']} below prior {last_ops}"
                )
            if sample["sim_ms"] < last_sim:
                problems.append(
                    f"sample sim_ms {sample['sim_ms']} below prior "
                    f"{last_sim}"
                )
            last_seq = int(sample["seq"])  # type: ignore[arg-type]
            last_ops = int(sample["ops"])  # type: ignore[arg-type]
            last_sim = float(sample["sim_ms"])  # type: ignore[arg-type]
    if document.summary:
        total = sum(document.summary.get("kinds", {}).values())
        if total != document.summary.get("ops"):
            problems.append(
                f"summary kinds sum to {total}, ops says "
                f"{document.summary.get('ops')}"
            )
    for name, histogram in document.latency.items():
        if not (name.startswith("latency.") and is_known_metric(name)):
            problems.append(
                f"histogram {name!r} outside the registered latency family"
            )
        if sum(histogram.counts) != histogram.count:
            problems.append(
                f"histogram {name!r} bucket counts do not sum to count"
            )
    return problems


# ----------------------------------------------------------------------
# Rendering, diffing, drift
# ----------------------------------------------------------------------
def render_summary(document: TimelineDocument) -> str:
    """Latency-percentile table plus the sampling trajectory."""
    summary = document.summary
    lines = [
        f"timeline: {summary.get('ops', 0)} op(s), "
        f"{summary.get('sim_ms', 0.0):.1f} simulated ms, "
        f"{len(document.samples)} sample(s)"
    ]
    if document.latency:
        lines.append(
            f"  {'series':<40} {'count':>7} {'mean':>9} "
            f"{'p50':>8} {'p95':>8} {'p99':>8}"
        )
        for name in sorted(document.latency):
            histogram = document.latency[name]
            p = histogram.percentiles()
            lines.append(
                f"  {name:<40} {histogram.count:>7} "
                f"{histogram.mean:>9.2f} {p['p50']:>8.0f} "
                f"{p['p95']:>8.0f} {p['p99']:>8.0f}"
            )
    for sample in document.samples:
        ops = sample["ops"]
        sim = sample["sim_ms"]
        rate = sim / ops if ops else 0.0  # type: ignore[operator]
        lines.append(
            f"  sample {sample['seq']:>4} [{sample['trigger']:<6}] "
            f"ops={ops:>8} sim_ms={sim:>12.1f} ms/op={rate:>8.2f}"
        )
    return "\n".join(lines)


def diff_documents(
    a: TimelineDocument, b: TimelineDocument
) -> dict[str, tuple[object, object]]:
    """Field-level differences between two timelines (empty = same)."""
    differences: dict[str, tuple[object, object]] = {}
    for field in ("every_ops", "every_sim_ms", "seek_ms",
                  "transfer_ms_per_page"):
        if a.header.get(field) != b.header.get(field):
            differences[f"header.{field}"] = (
                a.header.get(field), b.header.get(field)
            )
    for field in ("ops", "sim_ms", "samples"):
        if a.summary.get(field) != b.summary.get(field):
            differences[f"summary.{field}"] = (
                a.summary.get(field), b.summary.get(field)
            )
    for name in sorted(set(a.latency) | set(b.latency)):
        ha = a.latency.get(name)
        hb = b.latency.get(name)
        if ha is None or hb is None:
            differences[f"latency.{name}"] = (
                None if ha is None else ha.count,
                None if hb is None else hb.count,
            )
        elif (ha.counts, ha.count, ha.sum_value) != (
            hb.counts, hb.count, hb.sum_value
        ):
            differences[f"latency.{name}"] = (
                (ha.count, ha.sum_value), (hb.count, hb.sum_value)
            )
    return differences


def render_diff(a: TimelineDocument, b: TimelineDocument) -> str:
    """Human rendering of :func:`diff_documents` (empty = identical)."""
    differences = diff_documents(a, b)
    return "\n".join(
        f"{field}: {left!r} -> {right!r}"
        for field, (left, right) in sorted(differences.items())
    )


@dataclasses.dataclass(frozen=True)
class DriftFlag:
    """Cost-per-op drift between the early and late halves of a run."""

    early_ms_per_op: float
    late_ms_per_op: float
    ratio: float

    def render(self) -> str:
        direction = "grew" if self.ratio > 1 else "shrank"
        return (
            f"drift: cost/op {direction} {self.early_ms_per_op:.2f} -> "
            f"{self.late_ms_per_op:.2f} ms ({self.ratio:.2f}x)"
        )


def detect_drift(
    document: TimelineDocument,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
) -> DriftFlag | None:
    """Flag when late-half cost/op drifts past ``threshold`` vs early.

    This is the fragmentation signal the aging literature cares about:
    on a store whose layout is degrading, the same op mix costs more
    simulated time per operation late in the run than early.  Returns
    ``None`` when the timeline is too short or within threshold.
    """
    if threshold <= 1.0:
        raise InvalidArgumentError("drift threshold must exceed 1.0")
    samples = document.samples
    if len(samples) < 2:
        return None
    mid = samples[len(samples) // 2 - 1] if len(samples) % 2 == 0 else (
        samples[len(samples) // 2]
    )
    last = samples[-1]
    mid_ops = int(mid["ops"])  # type: ignore[arg-type]
    mid_sim = float(mid["sim_ms"])  # type: ignore[arg-type]
    late_ops = int(last["ops"]) - mid_ops  # type: ignore[arg-type]
    late_sim = float(last["sim_ms"]) - mid_sim  # type: ignore[arg-type]
    if mid_ops == 0 or late_ops == 0:
        return None
    early_rate = mid_sim / mid_ops
    late_rate = late_sim / late_ops
    if early_rate == 0.0:
        return None
    ratio = late_rate / early_rate
    if ratio >= threshold or ratio <= 1.0 / threshold:
        return DriftFlag(early_rate, late_rate, ratio)
    return None
