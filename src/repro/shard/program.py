"""Shard programs: a shard's whole lifetime as a picklable value.

Parallel shard execution cannot ship live shard state to worker
processes: buffer-pool frames hold provider closures, and buddy free
lists are Python sets whose pop order depends on insertion history — a
pickle round-trip would silently change allocation order and break the
bit-identity contract.  Instead, each shard's entire life is described
as a :class:`ShardProgram` — a pure, picklable value listing the setup
and measured steps to replay from an empty store — and executed from
scratch wherever convenient (in-process or in a worker).  Replaying the
same program always produces the same simulated counters and windows,
so results are independent of worker count and scheduling (the same
property :mod:`repro.experiments.parallel` relies on for grid points).

The measured phase is reported as the ledger delta across it
(:class:`~repro.disk.iomodel.IOStats`), and the per-shard deltas are
summed into one merged report by
:func:`repro.shard.parallel.merge_outcomes`.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.disk.iomodel import IOStats
from repro.buffer.pool import PoolStats
from repro.exec.engine import BatchResult
from repro.exec.plan import BatchOp, MultiOp, read_op
from repro.experiments.common import build_object
from repro.obs.runtime import installed
from repro.obs.tracer import Tracer, span_of
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WindowStats, WorkloadRunner


class BuildStep(NamedTuple):
    """Create one object and append it up to ``total_bytes`` (batched)."""

    total_bytes: int
    chunk_bytes: int


class ScanStep(NamedTuple):
    """Sequentially scan a built object as one batch of chunked reads."""

    obj: int  # index into the program's built objects
    chunk_bytes: int


class WorkloadStep(NamedTuple):
    """Run the 40/30/30 random-update mix against a built object."""

    obj: int
    n_ops: int
    mean_op_size: int
    seed: int
    window: int
    keep_op_costs: bool = False


class OpsStep(NamedTuple):
    """Submit explicit (object index, op) pairs as one multi-object batch."""

    mops: tuple[tuple[int, BatchOp], ...]


Step = BuildStep | ScanStep | WorkloadStep | OpsStep


class ShardProgram(NamedTuple):
    """One shard's full replayable lifetime (pure data, picklable).

    ``setup`` steps run before the measured phase snapshot; ``measured``
    steps are the ones reported.  ``keep_image`` retains the
    shard's final raw disk image in the outcome (tests use it for
    bit-identity fingerprints).
    """

    shard_index: int
    shard_count: int
    scheme: str
    setup: tuple[Step, ...] = ()
    measured: tuple[Step, ...] = ()
    leaf_pages: int = 4
    threshold_pages: int = 4
    config: SystemConfig = PAPER_CONFIG
    record_data: bool = False
    shadowing: bool = True
    keep_image: bool = False

    @property
    def label(self) -> str:
        """Human label used by the parallel runner's degradation log."""
        return (
            f"shard{self.shard_index}/{self.shard_count}:{self.scheme}"
        )


class ShardOutcome(NamedTuple):
    """Everything one replayed shard program reports back (picklable).

    ``stats`` is the measured-phase ledger delta.
    ``step_results`` lines up with the program's measured steps:
    build → local oid, scan → bytes scanned, workload → window tuple,
    ops → :class:`~repro.exec.engine.BatchResult`.
    """

    shard_index: int
    scheme: str
    stats: IOStats
    sim_ms: float
    pool: PoolStats
    step_results: tuple[object, ...]
    image: "dict[int, object] | None"


def _run_step(
    store: LargeObjectStore, oids: list[int], step: Step
) -> object:
    """Execute one program step; returns its step result."""
    if isinstance(step, BuildStep):
        oid = build_object(store, step.total_bytes, step.chunk_bytes)
        oids.append(oid)
        return oid
    if isinstance(step, ScanStep):
        oid = oids[step.obj]
        size = store.size(oid)
        chunk = step.chunk_bytes
        store.submit_ops(oid, [
            read_op(position, min(chunk, size - position))
            for position in range(0, size, chunk)
        ])
        return size
    if isinstance(step, WorkloadStep):
        oid = oids[step.obj]
        generator = WorkloadGenerator(
            object_size=store.size(oid),
            mean_op_size=step.mean_op_size,
            seed=step.seed,
        )
        runner = WorkloadRunner(store.manager, oid, generator)
        windows: list[WindowStats] = runner.run(
            step.n_ops,
            window=step.window,
            keep_op_costs=step.keep_op_costs,
        )
        return tuple(windows)
    if isinstance(step, OpsStep):
        mops = [MultiOp(oids[obj], op) for obj, op in step.mops]
        result: BatchResult = store.submit_multi(mops)
        return result
    raise InvalidArgumentError(f"unknown shard program step {step!r}")


def execute_program(program: ShardProgram) -> ShardOutcome:
    """Replay one shard program from an empty store (pure function).

    Safe to run in a worker process: the program and the outcome are
    plain picklable values, and the result depends only on the program.
    """
    store = LargeObjectStore(
        program.scheme,
        program.config,
        leaf_pages=program.leaf_pages,
        threshold_pages=program.threshold_pages,
        record_data=program.record_data,
        shadowing=program.shadowing,
    )
    tracer = store.env.tracer
    oids: list[int] = []
    with span_of(tracer, "shard.setup", shard=program.shard_index):
        for step in program.setup:
            _run_step(store, oids, step)
    before = store.snapshot()
    with span_of(tracer, "shard.measure", shard=program.shard_index):
        step_results = [
            _run_step(store, oids, step) for step in program.measured
        ]
    delta = store.stats.delta(before)
    return ShardOutcome(
        shard_index=program.shard_index,
        scheme=program.scheme,
        stats=delta,
        sim_ms=delta.elapsed_ms(program.config),
        pool=dataclasses.replace(store.env.pool.stats),
        step_results=tuple(step_results),
        image=store.env.disk.image() if program.keep_image else None,
    )


def execute_program_traced(
    program: ShardProgram,
) -> tuple[ShardOutcome, dict[str, object]]:
    """Replay a program under a private tracer; returns its state too.

    The captured state pickles back to the parent, which absorbs the
    per-shard traces in shard order — the merged trace is independent of
    worker count, exactly as the grid runner's traced mode.
    """
    tracer = Tracer(meta={"shard": program.label})
    with installed(tracer):
        outcome = execute_program(program)
    return outcome, tracer.capture_state()
