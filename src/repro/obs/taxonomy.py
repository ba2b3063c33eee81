"""Closed taxonomy of span and event kinds emitted by the tracer.

Every ``tracer.span(kind, ...)`` / ``tracer.event(kind, ...)`` call in
``src/repro`` uses a kind from this module.  The taxonomy gives the
observability pipeline (PR 5) a stable vocabulary — summaries, cost
attribution, and the exact span-decomposition invariant all group by
these strings.  ``tests/test_obs.py`` checks that every
``_op_span("<name>")`` in the tree opens an ``op.<name>`` listed here,
and the committed trace checksums (``tests/golden/obs-tiny.sha256``)
fail on any renamed or missing op span.

Keep this list in sync when adding instrumentation; adding a kind here
is a deliberate, reviewed act of extending the trace vocabulary.
"""

from __future__ import annotations

#: Paper-facing byte-range operations (``LargeObjectManager`` overrides),
#: plus the batch submission entry point (``submit_ops`` opens
#: ``op.batch`` around a whole submitted batch; the individual ops still
#: open their own ``op.*`` spans inside it).
OP_SPAN_KINDS: frozenset[str] = frozenset({
    "op.create",
    "op.destroy",
    "op.read",
    "op.append",
    "op.trim",
    "op.insert",
    "op.delete",
    "op.replace",
    "op.batch",
    "op.multi",
})

#: Interior spans: segment I/O, tree maintenance, batch execution,
#: and sharded execution.  ``exec.batch`` wraps the
#: engine's dispatch of one submitted batch (between ``op.batch`` and
#: the per-op spans); ``exec.multi`` is its multi-object counterpart.
#: ``shard.batch`` wraps the router's multi-shard batch split, and
#: ``shard.setup`` / ``shard.measure`` are the build and measured
#: phases of one shard's slice in the ``shards`` experiment.
#: ``atomic.prepare`` wraps one shard's phase-1 work (PREPARE record +
#: held execution), ``atomic.commit`` the decision write and each
#: shard's phase-2 apply, and ``atomic.recover`` one shard's journal
#: resolution after a crash (see :mod:`repro.atomic`).
INTERIOR_SPAN_KINDS: frozenset[str] = frozenset({
    "segio.read",
    "segio.read_unaligned",
    "segio.write",
    "tree.flush",
    "exec.batch",
    "exec.multi",
    "shard.batch",
    "shard.setup",
    "shard.measure",
    "atomic.prepare",
    "atomic.commit",
    "atomic.recover",
    "obs.health",
})

#: Every legal ``tracer.span(...)`` kind.
SPAN_KINDS: frozenset[str] = OP_SPAN_KINDS | INTERIOR_SPAN_KINDS

#: Every legal ``tracer.event(...)`` / ``tracer.io_event(...)`` kind.
EVENT_KINDS: frozenset[str] = frozenset({
    "disk.read",
    "disk.write",
    "disk.retry.read",
    "disk.retry.write",
    "disk.torn_write",
    "disk.checksum_fail",
    "pool.writeback",
    "pool.evict",
    "tree.split.node",
    "tree.split.root",
    "tree.borrow",
    "tree.merge",
    "tree.collapse.root",
    "descriptor.flush",
    "fault.read",
    "fault.write",
    "fault.crash",
    "fault.torn",
    "fault.corrupt",
})

#: The whole vocabulary, spans and events together.
ALL_KINDS: frozenset[str] = SPAN_KINDS | EVENT_KINDS


#: Exact metric names the health probe may emit.
#: Names that carry a dynamic component (buddy area, shard index,
#: free-extent order) instead belong to a family in
#: :data:`METRIC_FAMILY_PREFIXES`; everything else must be listed here
#: verbatim.  The names are checked once, where they leave the process:
#: ``HealthReport.to_metrics`` raises on a name in neither set, so a typo
#: cannot mint a metric the catalogue does not know about.
METRIC_NAMES: frozenset[str] = frozenset({
    "health.objects",
    "health.bytes",
    "health.probes",
})

#: Leading prefixes of metric families whose full names embed dynamic
#: components.  The health probe's are ``health.skew.*`` (the cross-shard
#: imbalance ratios) and ``health.shard.<n>.*`` (every per-shard gauge:
#: buddy areas, layout, pool and journal).  The rest are the tracer's
#: metrics trailer: the ``span.<kind>``, ``event.<kind>``, ``io.*`` and
#: ``pool.*`` counters and the ``op.<kind>.cost_ms`` histograms.
METRIC_FAMILY_PREFIXES: tuple[str, ...] = (
    "health.skew.",
    "health.shard.",
    "span.",
    "event.",
    "io.",
    "pool.",
    "op.",
)


def is_known_metric(name: str) -> bool:
    """True when ``name`` is a registered metric or family member."""
    if name in METRIC_NAMES:
        return True
    return name.startswith(METRIC_FAMILY_PREFIXES)

