"""Exhaustive cross-shard atomicity sweep (all-or-nothing chaos).

The single-store sweep (:mod:`repro.recovery.sweep`) verifies that one
operation on one store is atomic at the physical write granularity.
This module verifies the *distributed* claim of :mod:`repro.atomic`:
a multi-object batch spanning every shard of an atomic
:class:`~repro.shard.router.ShardedStore` is **all-or-nothing** no
matter which shard's disk dies at which physical write.

For each scheme the sweep first dry-runs one deterministic cross-shard
batch to learn every shard's physical write count ``W_s`` — journal
writes (PREPARE, DECISION, APPLIED) included, since they are charged
writes like any other — and the batch's exact pre/post content.  It
then replays the scenario crashing shard ``s`` at write ``k`` for every
``s`` and every ``k`` in ``1..W_s`` (per-shard targeting via
:meth:`~repro.shard.router.ShardedStore.fault_injector`, so sibling
shards' I/O counters are untouched), plus a torn variant of each
multi-page write point.  After each crash:

1. the *image alone* is classified: every object across every shard
   must rebuild to the batch-start content (``batch-absent``) or every
   object to the batch-end content (``batch-present``) — any mix is an
   atomicity violation;
2. :func:`~repro.recovery.atomic.recover_sharded_store` resolves the
   journals (rollback or replay, per the decision table), recording
   healed shards in a :class:`~repro.experiments.parallel.DegradationLog`;
3. the recovered store must read back the classified state through the
   normal API and pass the journal-aware per-shard fsck — including a
   clean ``journal_residue`` class.

A transient-fault pass additionally arms retryable write faults on each
shard and asserts the batch *succeeds* (the disk's bounded retry policy
absorbs the fault) with clean fsck — proving the protocol does not
confuse a retried write with a crash.

``--jobs N`` fans the (scheme, target shard) grid out through the
experiment grid runner (:func:`repro.experiments.parallel.run_grid`);
tasks are independent and results merge in task order, so the report is
identical at any job count.
"""

from __future__ import annotations

import argparse
import dataclasses
from collections.abc import Sequence
from typing import NamedTuple

from repro.core.config import SystemConfig, small_page_config
from repro.core.errors import CrashError, InvalidArgumentError, ReproError
from repro.exec.plan import BatchOp, MultiOp
from repro.experiments.parallel import DegradationLog, run_grid
from repro.faults.plan import FaultPlan, at, every
from repro.recovery.atomic import fsck_sharded_store, recover_sharded_store
from repro.recovery.crash import rebuild_content
from repro.recovery.sweep import _MAX_WRITES, _SCHEME_OPTIONS, SWEEP_SCHEMES
from repro.shard.router import ShardedStore

__all__ = [
    "ShardCrashOutcome",
    "ShardSweepFailure",
    "ShardSweepReport",
    "cli_main",
    "run_cross_shard_sweep",
    "sweep_scheme_shard",
]


def _pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 29 + salt * 101 + 13) % 251 for i in range(n))


@dataclasses.dataclass(frozen=True)
class ShardCrashOutcome:
    """One verified crash point of the cross-shard sweep."""

    scheme: str
    shard: int
    crash_write: int
    #: "crash", "torn", or "transient".
    kind: str
    #: "batch-absent", "batch-present", or (transient) "completed".
    outcome: str
    #: Recovery actions per shard, e.g. "rolled-back,none,none".
    recovery: str
    #: Recovery telemetry, summed across shards (zero for transient
    #: points, which never enter recovery): allocator block slots
    #: reconciliation scanned, orphaned pages reclaimed, contiguous
    #: free runs they formed, and journaled ops re-executed.
    pages_scanned: int = 0
    reclaimed_pages: int = 0
    reclaimed_runs: int = 0
    replayed_ops: int = 0


@dataclasses.dataclass(frozen=True)
class ShardSweepFailure:
    """One crash point that violated atomicity or failed recovery."""

    scheme: str
    shard: int
    crash_write: int
    kind: str
    detail: str


@dataclasses.dataclass
class ShardSweepReport:
    """Aggregated result of a cross-shard atomicity sweep."""

    outcomes: list[ShardCrashOutcome] = dataclasses.field(
        default_factory=list
    )
    failures: list[ShardSweepFailure] = dataclasses.field(
        default_factory=list
    )
    #: Torn points skipped because the targeted write was single-page.
    atomic_skips: int = 0
    #: Shards recovery had to replay or roll back, over the whole sweep.
    log: DegradationLog = dataclasses.field(default_factory=DegradationLog)

    @property
    def clean(self) -> bool:
        return not self.failures

    def merge(self, other: "ShardSweepReport") -> None:
        """Fold a worker's partial report into this one, in call order."""
        self.outcomes.extend(other.outcomes)
        self.failures.extend(other.failures)
        self.atomic_skips += other.atomic_skips
        self.log.events.extend(other.log.events)

    def classification_table(self) -> str:
        """TSV classification of every point (the CI artifact).

        The last four columns are the point's recovery telemetry:
        allocator block slots scanned, orphaned pages reclaimed, the
        contiguous free runs they formed, and journaled ops replayed.
        """
        lines = [
            "scheme\tshard\twrite\tkind\toutcome\trecovery\t"
            "scanned\treclaimed\truns\treplayed"
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.scheme}\t{o.shard}\t{o.crash_write}\t{o.kind}\t"
                f"{o.outcome}\t{o.recovery}\t{o.pages_scanned}\t"
                f"{o.reclaimed_pages}\t{o.reclaimed_runs}\t{o.replayed_ops}"
            )
        for f in self.failures:
            lines.append(
                f"{f.scheme}\t{f.shard}\t{f.crash_write}\t{f.kind}\t"
                f"FAILED\t{f.detail}\t-\t-\t-\t-"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        schemes = sorted(
            {o.scheme for o in self.outcomes}
            | {f.scheme for f in self.failures}
        )
        for scheme in schemes:
            mine = [o for o in self.outcomes if o.scheme == scheme]
            bad = [f for f in self.failures if f.scheme == scheme]
            absent = sum(1 for o in mine if o.outcome == "batch-absent")
            present = sum(1 for o in mine if o.outcome == "batch-present")
            transient = sum(1 for o in mine if o.kind == "transient")
            line = (
                f"{scheme}: {len(mine) + len(bad)} points, "
                f"{len(mine)} atomic (absent={absent} present={present} "
                f"transient-ok={transient})"
            )
            if bad:
                line += f", {len(bad)} FAILED"
            lines.append(line)
        healed = len(self.log.events)
        verdict = "CLEAN" if self.clean else "FAILURES"
        lines.append(
            f"cross-shard sweep {verdict}: "
            f"{len(self.outcomes)} points verified, "
            f"{len(self.failures)} failures, {self.atomic_skips} atomic "
            f"single-page writes skipped (torn), {healed} shard "
            f"recoveries logged"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Deterministic scenario (identical across replays and processes)
# ----------------------------------------------------------------------
def _make_store(
    scheme: str, shards: int, config: SystemConfig
) -> tuple[ShardedStore, list[int]]:
    if scheme not in _SCHEME_OPTIONS:
        raise InvalidArgumentError(f"unknown sweep scheme {scheme!r}")
    store = ShardedStore(
        scheme, config, shards=shards, atomic=True,
        **_SCHEME_OPTIONS[scheme],
    )
    page = config.page_size
    oids = [
        store.create(_pattern(3 * page + 21, salt=i))
        for i in range(2 * shards)
    ]
    return store, oids


def _batch(store: ShardedStore, oids: list[int]) -> list[MultiOp]:
    """One multi-object batch touching every shard with mixed op kinds."""
    page = store.config.page_size
    mops: list[MultiOp] = []
    for i, oid in enumerate(oids):
        if i % 2 == 0:
            mops.append(MultiOp(oid, BatchOp(
                "append", 0, 0, _pattern(page + 17, salt=20 + i)
            )))
        else:
            mops.append(MultiOp(oid, BatchOp(
                "insert", page // 2, 0, _pattern(page - 13, salt=40 + i)
            )))
    return mops


def _image_contents(
    store: ShardedStore, oids: list[int]
) -> tuple[list[bytes | None], list[str]]:
    """Rebuild every object from raw page images; collect problems."""
    contents: list[bytes | None] = []
    problems: list[str] = []
    for oid in oids:
        shard_store, local = store._route(oid)
        try:
            contents.append(rebuild_content(shard_store, local))
        except ReproError as exc:
            contents.append(None)
            problems.append(f"oid {oid} unrebuildable: {exc}")
    return contents, problems


# ----------------------------------------------------------------------
# One (scheme, target shard) sweep — the parallel work unit
# ----------------------------------------------------------------------
def sweep_scheme_shard(
    scheme: str,
    shards: int,
    target: int,
    *,
    torn: bool = True,
) -> ShardSweepReport:
    """Crash ``target`` at every physical write point of the batch."""
    config = small_page_config()
    report = ShardSweepReport()

    # Dry run: per-shard write counts plus exact pre/post content.
    store, oids = _make_store(scheme, shards, config)
    pre = [bytes(store.read(o, 0, store.size(o))) for o in oids]
    before = [s.stats.write_calls for s in store.shards]
    store.submit_many(_batch(store, oids))
    writes = [
        s.stats.write_calls - b for s, b in zip(store.shards, before)
    ]
    post = [bytes(store.read(o, 0, store.size(o))) for o in oids]
    n_writes = writes[target]
    if n_writes < 1 or n_writes > _MAX_WRITES:
        raise ReproError(
            f"{scheme}/shard{target}: implausible write count {n_writes}"
        )

    kinds: list[tuple[str, int]] = [("crash", k) for k in range(1, n_writes + 1)]
    if torn:
        kinds += [("torn", k) for k in range(1, n_writes + 1)]

    for kind, k in kinds:
        store, oids = _make_store(scheme, shards, config)
        plan = (
            FaultPlan(torn_writes=at(k))
            if kind == "torn"
            else FaultPlan(crash_writes=at(k))
        )
        crashed = False
        with store.fault_injector(plan, shard=target):
            try:
                store.submit_many(_batch(store, oids))
            except CrashError:
                crashed = True
        if not crashed:
            if kind == "torn":
                report.atomic_skips += 1
                continue
            report.failures.append(ShardSweepFailure(
                scheme, target, k, kind,
                f"armed crash at write {k} never fired",
            ))
            continue

        problems: list[str] = []
        for shard_store in store.shards:
            corrupt = shard_store.env.disk.verify_checksums()
            if corrupt:
                problems.append(f"checksum damage on pages {corrupt}")
        # Raw-image atomicity is *per shard*: shadowing plus held
        # phase-2 application guarantee each shard's local sub-batch is
        # entirely absent or entirely applied on disk.  Across shards a
        # mid-phase-2 crash legitimately images some shards applied and
        # some not — the durable DECISION then obliges recovery to
        # replay the stragglers forward, which the recovered-state
        # check below enforces.
        images, image_problems = _image_contents(store, oids)
        problems.extend(image_problems)
        applied_shards: set[int] = set()
        for shard in range(shards):
            mine = [i for i, o in enumerate(oids) if o % shards == shard]
            local = [images[i] for i in mine]
            if local == [post[i] for i in mine]:
                applied_shards.add(shard)
            elif local != [pre[i] for i in mine]:
                problems.append(
                    f"ATOMICITY VIOLATION: shard{shard}'s image is "
                    "neither all-pre nor all-post of its sub-batch"
                )

        # Recovered-state atomicity: the authoritative classification.
        recovery = recover_sharded_store(store, log=report.log)
        actions = ",".join(s.action for s in recovery.shards)
        scanned = sum(s.pages_scanned for s in recovery.shards)
        reclaimed = sum(s.reclaimed_pages for s in recovery.shards)
        runs = sum(s.reclaimed_runs for s in recovery.shards)
        replayed = sum(s.replayed_ops for s in recovery.shards)
        live = [bytes(store.read(o, 0, store.size(o))) for o in oids]
        if live == pre:
            outcome = "batch-absent"
        elif live == post:
            outcome = "batch-present"
        else:
            outcome = "mixed"
            problems.append(
                "ATOMICITY VIOLATION: recovered store reads back "
                "neither the batch-start nor the batch-end state"
            )
        if applied_shards and outcome == "batch-absent":
            # Recovery may roll an all-pre image either way (replay on a
            # durable decision) but must never un-apply durable state.
            problems.append(
                f"recovery rolled back a batch shards {sorted(applied_shards)} "
                "had already durably applied"
            )
        for shard, fsck in enumerate(fsck_sharded_store(store)):
            if not fsck.clean:
                problems.append(f"shard{shard} {fsck.summary()}")
        if problems:
            report.failures.append(ShardSweepFailure(
                scheme, target, k, kind, "; ".join(problems)
            ))
        else:
            report.outcomes.append(ShardCrashOutcome(
                scheme, target, k, kind, outcome, actions,
                pages_scanned=scanned, reclaimed_pages=reclaimed,
                reclaimed_runs=runs, replayed_ops=replayed,
            ))

    # Transient pass: retryable write faults must not break the batch.
    store, oids = _make_store(scheme, shards, config)
    plan = FaultPlan(write_faults=every(3), transient=True)
    try:
        with store.fault_injector(plan, shard=target):
            store.submit_many(_batch(store, oids))
    except ReproError as exc:
        report.failures.append(ShardSweepFailure(
            scheme, target, 0, "transient",
            f"retryable faults broke the batch: {exc}",
        ))
    else:
        problems = []
        live = [bytes(store.read(o, 0, store.size(o))) for o in oids]
        if live != post:
            problems.append("content diverged under retried writes")
        for shard, fsck in enumerate(fsck_sharded_store(store)):
            if not fsck.clean:
                problems.append(f"shard{shard} {fsck.summary()}")
        if problems:
            report.failures.append(ShardSweepFailure(
                scheme, target, 0, "transient", "; ".join(problems)
            ))
        else:
            report.outcomes.append(ShardCrashOutcome(
                scheme, target, 0, "transient", "completed", "-"
            ))
    return report


class _SweepTask(NamedTuple):
    """One (scheme, target shard) unit of the fan-out (picklable)."""

    scheme: str
    shards: int
    target: int
    torn: bool

    @property
    def label(self) -> str:
        """Human label used by the grid runner's degradation log."""
        return f"shard-sweep:{self.scheme}/shard{self.target}"


def _worker(task: _SweepTask) -> ShardSweepReport:
    return sweep_scheme_shard(
        task.scheme, task.shards, task.target, torn=task.torn
    )


def run_cross_shard_sweep(
    schemes: Sequence[str] = SWEEP_SCHEMES,
    *,
    shards: int = 2,
    jobs: int = 1,
    torn: bool = True,
) -> ShardSweepReport:
    """Sweep every (scheme, target shard) pair, optionally in parallel."""
    if shards < 1:
        raise InvalidArgumentError("shards must be >= 1")
    tasks = [
        _SweepTask(scheme, shards, target, torn)
        for scheme in schemes
        for target in range(shards)
    ]
    report = ShardSweepReport()
    # run_grid returns results in task order, so the merged report is
    # identical to the serial one at any worker count.
    for partial in run_grid(tasks, jobs=jobs, compute=_worker):
        report.merge(partial)
    return report


# ----------------------------------------------------------------------
# CLI glue (dispatched from ``repro-experiments chaos --shards N``)
# ----------------------------------------------------------------------
def cli_main(args: argparse.Namespace) -> int:
    schemes = SWEEP_SCHEMES if args.scheme == "all" else (args.scheme,)
    report = run_cross_shard_sweep(
        schemes,
        shards=args.shards,
        jobs=args.jobs,
        torn=not args.no_torn,
    )
    print(report.summary())  # repro-lint: disable=OBS001
    if args.table:
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write(report.classification_table())
        print(f"classification table written to {args.table}")  # repro-lint: disable=OBS001
    if report.log.degraded:
        print(report.log.summary())  # repro-lint: disable=OBS001
    if not report.clean:
        for failure in report.failures:
            print(  # repro-lint: disable=OBS001
                f"FAIL {failure.scheme} shard{failure.shard} "
                f"{failure.kind} at write {failure.crash_write}: "
                f"{failure.detail}"
            )
        return 2
    return 0
