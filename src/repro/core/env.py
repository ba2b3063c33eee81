"""The shared storage environment: disk, pool, areas, and segment I/O.

One :class:`StorageEnvironment` corresponds to one simulated database
installation — the setting of Section 3: a simulated disk with the
analytic cost model, a buffer pool, two buddy-managed database areas, and
the hybrid segment I/O layer.  Every large-object manager runs on top of
an environment and all I/O charges land in its single cost ledger.
"""

from __future__ import annotations

from repro.buddy.area import DatabaseAreas
from repro.buffer.pool import BufferPool
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel, IOStats
from repro.exec.engine import BatchEngine
from repro.obs.runtime import resolve_tracer
from repro.obs.tracer import Tracer
from repro.recovery.shadow import DEFAULT_SHADOW, ShadowPolicy
from repro.segio import SegmentIO


class StorageEnvironment:
    """Bundle of the substrate components under one cost ledger."""

    def __init__(
        self,
        config: SystemConfig = PAPER_CONFIG,
        record_leaf_data: bool = True,
        shadow: ShadowPolicy = DEFAULT_SHADOW,
        tracer: Tracer | None = None,
    ) -> None:
        """Create a fresh simulated installation.

        ``record_leaf_data=False`` runs the leaf area in the paper's
        phantom mode (I/O is counted but object bytes are not stored),
        which is how the experiments reach 10 MB objects quickly; tests
        keep it ``True`` to verify byte-level correctness.

        ``tracer`` enables :mod:`repro.obs` tracing for everything built
        on this environment; when omitted, an ambiently installed tracer
        (``repro.obs.runtime.installed``) is picked up instead.  Tracing
        is strictly observational — costs and counters are identical with
        or without it.
        """
        self.config = config
        self.cost = CostModel(config)
        self.disk = SimulatedDisk(config, self.cost)
        self.tracer = resolve_tracer(tracer)
        if self.tracer is not None:
            self.disk.tracer = self.tracer
        self.pool = BufferPool(config, self.disk)
        self.areas = DatabaseAreas.create(
            config, self.pool, record_leaf_data=record_leaf_data
        )
        self.shadow = shadow
        self.segio = SegmentIO(
            config, self.pool, record_leaf_data=record_leaf_data
        )
        self.exec = BatchEngine(self)
        if self.tracer is not None:
            self.tracer.bind(config, self.cost.stats, self.pool.stats)

    # ------------------------------------------------------------------
    # Cost measurement helpers
    # ------------------------------------------------------------------
    def snapshot(self) -> IOStats:
        """Capture the I/O counters for a later delta measurement."""
        return self.cost.snapshot()

    def elapsed_ms_since(self, snapshot: IOStats) -> float:
        """Simulated milliseconds of I/O since the snapshot."""
        return self.cost.elapsed_since(snapshot)
