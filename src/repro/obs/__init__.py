"""End-to-end tracing, metrics, and cost attribution (``repro.obs``).

The observability layer of the reproduction: hierarchical spans opened by
manager operations and closed-over by the segment-I/O, tree, buffer, and
disk layers; structured events for every physical access, retry,
checksum failure, eviction, split, and injected fault; and a
deterministic metrics registry.  Traces export as JSONL and are
inspected with the ``repro-obs`` CLI (``summary`` / ``diff`` /
``flame`` / ``validate``).

:mod:`repro.obs.health` builds on the same machinery: a ``@pure_read``
store-health probe that computes fragmentation, layout, pool, journal,
and shard-skew gauges from in-memory ground truth (``repro-obs health``).

Everything is strictly observational: with no tracer installed the
instrumented layers pay one ``is not None`` check per site, and with one installed the recorded costs are read from the same
ledgers the reports use — reports and counters are bit-identical either
way.
"""

from repro.obs.export import (
    TRACE_FORMAT_VERSION,
    TraceDocument,
    dump_trace,
    load_trace,
    validate_trace,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.runtime import current, installed, resolve_tracer
from repro.obs.tracer import Tracer

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Histogram",
    "MetricsRegistry",
    "TraceDocument",
    "Tracer",
    "current",
    "dump_trace",
    "installed",
    "load_trace",
    "resolve_tracer",
    "validate_trace",
]
