"""Store-health telemetry: read-only gauges over a live store.

The 1992 paper reports end-of-run aggregate costs on young stores; the
signals that matter over a store's *lifetime* — external fragmentation,
segments-per-object drift, seek amplification, buffer-pool residency,
journal residue — are invisible in those aggregates.  This module walks
a live :class:`~repro.core.api.LargeObjectStore` (or every shard of a
:class:`~repro.shard.router.ShardedStore`) and computes them as
deterministic gauges.

Two hard rules, enforced rather than hoped for:

* **Strictly observational.**  The probe is ``@pure_read``-contracted
  and performs *zero charged I/O*: every gauge derives from in-memory
  allocator structures (``BuddySpace._free_sets``), in-memory object
  maps (tree extents via ``iter_extents(charged=False)``, Starburst
  descriptors, block directories), pool frame tables, and uncharged
  ``peek_pages`` journal forensics.  Reports, IOStats, pool counters,
  and disk images are bit-identical with probing on or off.
* **Cross-checked against ground truth.**  Every derived gauge is
  re-checked ``==`` against an independent source (free-extent
  histogram vs ``free_blocks``, the runs of each object's committed
  image vs the in-memory ``allocated_pages``); drift raises
  :class:`ContractViolationError`
  instead of reporting a wrong number.

Metric names emitted into the registry are confined to the families
registered in :mod:`repro.obs.taxonomy`; :meth:`HealthReport.to_metrics`
checks every name once at export and rejects any outside the catalogue.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import ContractViolationError
from repro.lint.contracts import pure_read
from repro.obs.metrics import MetricsRegistry
from repro.obs.taxonomy import is_known_metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.buddy.allocator import BuddyAllocator
    from repro.core.api import LargeObjectStore
    from repro.shard.router import ShardedStore

#: Format version of the JSON health report payload.
HEALTH_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Report dataclasses
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AreaHealth:
    """Gauges over one buddy-managed area (meta or data)."""

    name: str
    spaces: int
    total_blocks: int
    free_blocks: int
    allocated_blocks: int
    directory_pages: int
    #: ``{order: extent count}`` — free extents of size ``2**order``.
    free_extents: dict[int, int]
    largest_free_extent: int
    #: External fragmentation: 1 - largest free extent / free blocks
    #: (0.0 when nothing is free — an empty free list cannot fragment).
    fragmentation: float

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "spaces": self.spaces,
            "total_blocks": self.total_blocks,
            "free_blocks": self.free_blocks,
            "allocated_blocks": self.allocated_blocks,
            "directory_pages": self.directory_pages,
            "free_extents": {
                str(order): self.free_extents[order]
                for order in sorted(self.free_extents)
            },
            "largest_free_extent": self.largest_free_extent,
            "fragmentation": self.fragmentation,
        }


@dataclasses.dataclass(frozen=True)
class SchemeHealth:
    """Per-scheme object-layout gauges."""

    scheme: str
    objects: int
    bytes: int
    data_pages: int
    meta_pages: int
    #: Physical data runs (segments) across all objects.
    data_runs: int
    #: Minimum possible runs under ``max_segment_pages``.
    ideal_runs: int
    segments_per_object: float
    #: ``data_runs / ideal_runs`` — extra seeks a full sequential scan
    #: pays versus a perfectly laid-out store (1.0 = optimal).
    seek_amplification: float

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class PoolHealth:
    """Buffer-pool residency and hit-rate gauges."""

    capacity: int
    resident: int
    pinned: int
    hits: int
    misses: int
    evictions: int
    dirty_writebacks: int
    hit_rate: float

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class JournalHealth:
    """Intent-journal residue state (atomic stores only)."""

    resolved: bool
    residue_pages: int

    def to_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ShardHealth:
    """One shard's complete gauge set."""

    shard: int
    scheme: str
    data: AreaHealth
    meta: AreaHealth
    layout: SchemeHealth
    pool: PoolHealth
    journal: JournalHealth | None
    #: Simulated cost accumulated by this shard so far (ms).
    cost_ms: float

    def to_dict(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "scheme": self.scheme,
            "data": self.data.to_dict(),
            "meta": self.meta.to_dict(),
            "layout": self.layout.to_dict(),
            "pool": self.pool.to_dict(),
            "journal": None if self.journal is None else self.journal.to_dict(),
            "cost_ms": self.cost_ms,
        }


@dataclasses.dataclass(frozen=True)
class HealthReport:
    """Per-shard gauges plus cross-shard skew."""

    shards: tuple[ShardHealth, ...]
    #: ``max / mean`` imbalance ratios across shards (1.0 = balanced).
    skew_objects: float
    skew_bytes: float
    skew_cost: float

    @property
    def objects(self) -> int:
        return sum(s.layout.objects for s in self.shards)

    @property
    def total_bytes(self) -> int:
        return sum(s.layout.bytes for s in self.shards)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": HEALTH_FORMAT_VERSION,
            "shards": [s.to_dict() for s in self.shards],
            "objects": self.objects,
            "bytes": self.total_bytes,
            "skew": {
                "objects": self.skew_objects,
                "bytes": self.skew_bytes,
                "cost": self.skew_cost,
            },
        }

    def to_metrics(self) -> MetricsRegistry:
        """Emit every gauge into a fresh registry.

        Shard-qualified names use the ``health.shard.`` family; the
        store-wide roll-ups use exact registered names.  The finished
        registry is checked once against
        :func:`repro.obs.taxonomy.is_known_metric`: an unregistered name
        raises :class:`ContractViolationError`.
        """
        metrics = MetricsRegistry()
        metrics.inc("health.probes")
        metrics.set_gauge("health.objects", self.objects)
        metrics.set_gauge("health.bytes", self.total_bytes)
        metrics.set_gauge("health.skew.objects", self.skew_objects)
        metrics.set_gauge("health.skew.bytes", self.skew_bytes)
        metrics.set_gauge("health.skew.cost", self.skew_cost)
        for shard in self.shards:
            prefix = f"health.shard.{shard.shard}"
            for area in (shard.data, shard.meta):
                base = f"{prefix}.{area.name}"
                metrics.set_gauge(f"{base}.free_blocks", area.free_blocks)
                metrics.set_gauge(
                    f"{base}.allocated_blocks", area.allocated_blocks
                )
                metrics.set_gauge(f"{base}.fragmentation", area.fragmentation)
                metrics.set_gauge(
                    f"{base}.largest_free_extent", area.largest_free_extent
                )
                for order in sorted(area.free_extents):
                    metrics.set_gauge(
                        f"{base}.free_extents.order{order}",
                        area.free_extents[order],
                    )
            layout = shard.layout
            metrics.set_gauge(f"{prefix}.objects", layout.objects)
            metrics.set_gauge(f"{prefix}.bytes", layout.bytes)
            metrics.set_gauge(
                f"{prefix}.segments_per_object", layout.segments_per_object
            )
            metrics.set_gauge(
                f"{prefix}.seek_amplification", layout.seek_amplification
            )
            pool = shard.pool
            metrics.set_gauge(f"{prefix}.pool.resident", pool.resident)
            metrics.set_gauge(f"{prefix}.pool.capacity", pool.capacity)
            metrics.set_gauge(f"{prefix}.pool.pinned", pool.pinned)
            metrics.set_gauge(f"{prefix}.pool.hit_rate", pool.hit_rate)
            if shard.journal is not None:
                metrics.set_gauge(
                    f"{prefix}.journal.residue_pages",
                    shard.journal.residue_pages,
                )
                metrics.set_gauge(
                    f"{prefix}.journal.unresolved",
                    0 if shard.journal.resolved else 1,
                )
        unknown = [
            name for name in (*metrics.counters, *metrics.gauges)
            if not is_known_metric(name)
        ]
        if unknown:
            raise ContractViolationError(
                f"unregistered health metric(s): {', '.join(unknown)}"
            )
        return metrics

    def render(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"health: {len(self.shards)} shard(s), "
            f"{self.objects} object(s), {self.total_bytes} byte(s)",
            f"  skew  objects={self.skew_objects:.3f} "
            f"bytes={self.skew_bytes:.3f} cost={self.skew_cost:.3f}",
        ]
        for s in self.shards:
            lines.append(
                f"  shard {s.shard} [{s.scheme}] "
                f"objects={s.layout.objects} bytes={s.layout.bytes} "
                f"cost={s.cost_ms:.1f}ms"
            )
            for area in (s.data, s.meta):
                extents = " ".join(
                    f"2^{order}:{area.free_extents[order]}"
                    for order in sorted(area.free_extents)
                    if area.free_extents[order]
                ) or "-"
                lines.append(
                    f"    {area.name:<4} free={area.free_blocks}"
                    f"/{area.total_blocks} "
                    f"frag={area.fragmentation:.3f} extents[{extents}]"
                )
            lines.append(
                f"    layout segs/obj={s.layout.segments_per_object:.2f} "
                f"seek_amp={s.layout.seek_amplification:.2f} "
                f"(runs={s.layout.data_runs} ideal={s.layout.ideal_runs})"
            )
            lines.append(
                f"    pool resident={s.pool.resident}/{s.pool.capacity} "
                f"pinned={s.pool.pinned} hit_rate={s.pool.hit_rate:.3f}"
            )
            if s.journal is not None:
                state = "resolved" if s.journal.resolved else "UNRESOLVED"
                lines.append(
                    f"    journal {state} "
                    f"residue_pages={s.journal.residue_pages}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Probing
# ----------------------------------------------------------------------
def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolationError(f"health gauge drift: {message}")


class HealthProbe:
    """Read-only walker over one :class:`LargeObjectStore`.

    Holds ``self.env`` and its disk's ``checks`` flag so the
    ``@pure_read`` contract can fingerprint the store's simulated disk
    with the checks on — any charged write attempted during a probe
    raises ``ContractViolationError``.
    """

    def __init__(self, store: "LargeObjectStore", shard: int = 0) -> None:
        self.store = store
        self.env = store.env
        self.checks = store.env.disk.checks
        self.shard = shard

    # -- per-area -------------------------------------------------------
    def _probe_area(self, allocator: "BuddyAllocator") -> AreaHealth:
        free_extents: dict[int, int] = {}
        total_blocks = 0
        free_blocks = 0
        allocated_blocks = 0
        largest = 0
        for index in range(allocator.space_count):
            space = allocator._spaces[index]
            total_blocks += space.total_blocks
            free_blocks += space.free_blocks
            allocated_blocks += space.allocated_blocks
            for order, offsets in enumerate(space._free_sets):
                if offsets:
                    free_extents[order] = (
                        free_extents.get(order, 0) + len(offsets)
                    )
                    largest = max(largest, 1 << order)
        # Ground truth: the histogram must account for every free block
        # the allocator believes it has, and the area must balance.
        histogram_blocks = sum(
            count << order for order, count in free_extents.items()
        )
        _check(
            histogram_blocks == free_blocks,
            f"area {allocator.name!r}: free-extent histogram covers "
            f"{histogram_blocks} blocks, allocator reports {free_blocks}",
        )
        _check(
            free_blocks + allocated_blocks == total_blocks,
            f"area {allocator.name!r}: free {free_blocks} + allocated "
            f"{allocated_blocks} != total {total_blocks}",
        )
        fragmentation = (
            1.0 - largest / free_blocks if free_blocks else 0.0
        )
        return AreaHealth(
            name=allocator.name,
            spaces=allocator.space_count,
            total_blocks=total_blocks,
            free_blocks=free_blocks,
            allocated_blocks=allocated_blocks,
            directory_pages=allocator.directory_pages,
            free_extents=free_extents,
            largest_free_extent=largest,
            fragmentation=fragmentation,
        )

    # -- per-scheme layout ---------------------------------------------
    def _probe_layout(self) -> SchemeHealth:
        store = self.store
        manager = store.manager
        max_segment = store.config.max_segment_pages
        oids = manager.oids()
        total_bytes = 0
        data_pages = 0
        meta_pages = 0
        data_runs = 0
        ideal_runs = 0
        for oid in oids:
            extents = list(manager.image_extents(oid))
            runs = [e.alloc_pages for e in extents if not e.meta]
            object_pages = sum(runs)
            meta = len(extents) - len(runs)
            # Ground truth: the committed image must account for exactly
            # the pages the in-memory structure says the object occupies.
            _check(
                object_pages + meta == manager.allocated_pages(oid),
                f"oid {oid}: image runs cover {object_pages} data + "
                f"{meta} meta pages, manager reports "
                f"{manager.allocated_pages(oid)}",
            )
            total_bytes += store.size(oid)
            data_pages += object_pages
            meta_pages += meta
            data_runs += len(runs)
            if object_pages:
                ideal_runs += -(-object_pages // max_segment)
            elif runs:
                ideal_runs += 1
        objects = len(oids)
        return SchemeHealth(
            scheme=store.scheme,
            objects=objects,
            bytes=total_bytes,
            data_pages=data_pages,
            meta_pages=meta_pages,
            data_runs=data_runs,
            ideal_runs=ideal_runs,
            segments_per_object=data_runs / objects if objects else 0.0,
            seek_amplification=(
                data_runs / ideal_runs if ideal_runs else 1.0
            ),
        )

    # -- pool -----------------------------------------------------------
    def _probe_pool(self) -> PoolHealth:
        pool = self.env.pool
        stats = pool.stats
        resident = pool.resident_count
        _check(
            resident <= pool.capacity,
            f"pool holds {resident} frames over capacity {pool.capacity}",
        )
        return PoolHealth(
            capacity=pool.capacity,
            resident=resident,
            pinned=pool.capacity - pool.headroom,
            hits=stats.hits,
            misses=stats.misses,
            evictions=stats.evictions,
            dirty_writebacks=stats.dirty_writebacks,
            hit_rate=stats.hit_rate,
        )

    # -- whole shard ----------------------------------------------------
    @pure_read
    def probe(self, journal: object = None) -> ShardHealth:
        """Walk the store and return its gauges (zero charged I/O)."""
        env = self.env
        tracer = env.tracer
        if tracer is not None:
            with tracer.span("obs.health", shard=self.shard):
                return self._probe(journal)
        return self._probe(journal)

    def _probe(self, journal: object) -> ShardHealth:
        env = self.env
        journal_health = None
        if journal is not None:
            state = journal.read_state()
            journal_health = JournalHealth(
                resolved=state.resolved,
                residue_pages=len(journal.residue_pages()),
            )
        stats = self.store.stats
        config = self.store.config
        cost_ms = (
            stats.io_calls * config.seek_ms
            + stats.pages_transferred * config.transfer_ms_per_page
        )
        return ShardHealth(
            shard=self.shard,
            scheme=self.store.scheme,
            data=self._probe_area(env.areas.data),
            meta=self._probe_area(env.areas.meta),
            layout=self._probe_layout(),
            pool=self._probe_pool(),
            journal=journal_health,
            cost_ms=cost_ms,
        )


def _imbalance(values: Iterable[float]) -> float:
    values = list(values)
    total = sum(values)
    if not values or total == 0:
        return 1.0
    mean = total / len(values)
    return max(values) / mean


def probe_store(store: "LargeObjectStore") -> HealthReport:
    """Probe a single (unsharded) store."""
    shard = HealthProbe(store, shard=0).probe()
    return HealthReport(
        shards=(shard,), skew_objects=1.0, skew_bytes=1.0, skew_cost=1.0
    )


def probe_sharded_store(store: "ShardedStore") -> HealthReport:
    """Probe every shard of a :class:`ShardedStore`, in shard order."""
    journals: tuple = (
        store.coordinator.journals
        if store.coordinator is not None
        else (None,) * store.n_shards
    )
    shards = tuple(
        HealthProbe(shard_store, shard=index).probe(journals[index])
        for index, shard_store in enumerate(store.shards)
    )
    return HealthReport(
        shards=shards,
        skew_objects=_imbalance(s.layout.objects for s in shards),
        skew_bytes=_imbalance(s.layout.bytes for s in shards),
        skew_cost=_imbalance(s.cost_ms for s in shards),
    )
