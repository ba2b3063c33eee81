"""End-to-end tracing, metrics, and cost attribution (``repro.obs``).

The observability layer of the reproduction: hierarchical spans opened by
manager operations and closed-over by the segment-I/O, tree, buffer, and
disk layers; structured events for every physical access, retry,
checksum failure, eviction, split, and injected fault; and a
deterministic metrics registry the parallel runner can aggregate across
workers.  Traces export as JSONL and are inspected with the ``repro-obs``
CLI (``summary`` / ``diff`` / ``flame`` / ``validate``).

Two further observational subsystems build on the same machinery:

* :mod:`repro.obs.health` — a ``@pure_read`` store-health probe that
  computes fragmentation, layout, pool, journal, and shard-skew gauges
  from in-memory ground truth (``repro-obs health``);
* :mod:`repro.obs.timeline` — a deterministic time-series sampler over
  per-op simulated costs with log-bucketed latency percentiles
  (``repro-obs timeline``, ``repro-experiments --timeline``).

Everything is strictly observational: with no tracer or sampler
installed the instrumented layers pay one ``is not None`` check per
site, and with one installed the recorded costs are read from the same
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
from repro.obs.timeline import (
    TIMELINE_FORMAT_VERSION,
    TimelineDocument,
    TimelineSampler,
    detect_drift,
    dump_timeline,
    load_timeline,
    resolve_sampler,
    validate_timeline,
)
from repro.obs.tracer import Tracer

__all__ = [
    "TIMELINE_FORMAT_VERSION",
    "TRACE_FORMAT_VERSION",
    "Histogram",
    "MetricsRegistry",
    "TimelineDocument",
    "TimelineSampler",
    "TraceDocument",
    "Tracer",
    "current",
    "detect_drift",
    "dump_timeline",
    "dump_trace",
    "installed",
    "load_timeline",
    "load_trace",
    "resolve_sampler",
    "resolve_tracer",
    "validate_timeline",
    "validate_trace",
]
