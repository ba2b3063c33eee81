"""Exhaustive crash-sweep recovery verification: one loop, any scenario.

Shadowing's testable guarantee (Section 3.3) is *atomicity at the
physical write granularity*: an operation becomes visible only at its
final root/descriptor write, so a crash before any physical write leaves
the object bit-identical to its pre-operation state, and a crash after
the last write leaves it bit-identical to the post-operation state.

:func:`sweep` turns that guarantee into a machine-checked loop.  It
dry-runs a *scenario* on a fresh deterministic store to learn the
faulted disk's physical write count ``W`` and the exact pre/post
content, then — for each fault kind the scenario asks for and each ``k``
in ``1..W`` — rebuilds the store, arms a
:class:`~repro.faults.plan.FaultPlan` on a
:class:`~repro.faults.FaultInjector` that crashes write ``k``
(``crash``) or persists only a prefix of it (``torn``; single-page
writes are atomic and skipped — shadowing writes new data to *fresh*
pages, so even a torn write never damages committed state), runs the
scenario into the fault, and has the scenario judge the wreckage.

A scenario is a small value supplying ``build`` (a fresh
store and the object ids under test), ``act`` (the faulted work),
``faulted`` (the store whose disk the plan arms and whose writes are
counted) and ``judge``, plus ``scheme`` / ``target`` / ``label`` /
``kinds`` to name its points: :class:`SingleOp` is one operation on one
store, :class:`CrossShardBatch` one atomic batch over N shards.  A new
crash scenario is one more such value; the loop, the point record, the
report, :func:`run_sweep` and the CLI (``repro-experiments chaos``) are
shared.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
from collections.abc import Sequence
from typing import Any, NamedTuple

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import CrashError, InvalidArgumentError, ReproError
from repro.exec.plan import BatchOp, MultiOp
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at, every
from repro.recovery.atomic import fsck_sharded_store, recover_sharded_store
from repro.recovery.crash import rebuild_content
from repro.shard.router import ShardedStore

__all__ = [
    "MUTATING_OPS",
    "SWEEP_SCHEMES",
    "CrossShardBatch",
    "SingleOp",
    "SweepPoint",
    "SweepReport",
    "cli_main",
    "run_sweep",
    "sweep",
]

#: The paper's three managers; the block-based baseline has no recovery
#: story (in-place directory overwrites) and is deliberately excluded.
SWEEP_SCHEMES: tuple[str, ...] = ("esm", "starburst", "eos")

#: Every mutating operation of the object interface (Section 2).
MUTATING_OPS: tuple[str, ...] = (
    "create",
    "append",
    "insert",
    "delete",
    "overwrite",
)

_SCHEME_OPTIONS: dict[str, dict[str, int]] = {
    "esm": {"leaf_pages": 2},
    "starburst": {},
    "eos": {"threshold_pages": 2},
}

#: Safety valve: no scenario at the sweep scales used here comes
#: anywhere near this many physical writes.
_MAX_WRITES = 2000

#: ``SweepPoint.outcome`` of a point that failed verification.
FAILED = "FAILED"

Contents = dict[int, bytes]


def _pattern(n: int, salt: int = 0) -> bytes:
    """Deterministic non-repeating payload (independent of tests)."""
    return bytes((i * 31 + salt * 97 + 7) % 251 for i in range(n))


def _scheme_options(scheme: str) -> dict[str, int]:
    if scheme not in _SCHEME_OPTIONS:
        raise InvalidArgumentError(f"unknown sweep scheme {scheme!r}")
    return _SCHEME_OPTIONS[scheme]


def _plan(kind: str, k: int) -> FaultPlan:
    """The fault plan of one point: ``kind`` at physical write ``k``."""
    if kind == "crash":
        return FaultPlan(crash_writes=at(k))
    if kind == "torn":
        return FaultPlan(torn_writes=at(k))
    if kind == "transient":
        # Not a crash point: retryable faults the disk's bounded retry
        # policy must absorb, so the scenario runs to completion.
        return FaultPlan(write_faults=every(3), transient=True)
    raise InvalidArgumentError(f"unknown sweep fault kind {kind!r}")


def _contents(
    store: LargeObjectStore | ShardedStore, oids: list[int]
) -> Contents:
    return {oid: bytes(store.read(oid, 0, store.size(oid))) for oid in oids}


def _checksum_problems(store: LargeObjectStore) -> list[str]:
    corrupt = store.env.disk.verify_checksums()
    return [f"checksum damage on pages {corrupt}"] if corrupt else []


# ----------------------------------------------------------------------
# The point record and the report
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One (scenario, fault kind, write) point, verified or failed."""

    scenario: Any
    #: "crash", "torn", or "transient".
    kind: str
    #: The faulted physical write (0 for the one "transient" point).
    write: int
    #: The committed state the point landed in — "pre"/"post"/"absent"
    #: (single op), "batch-absent"/"batch-present"/"completed" (batch) —
    #: or :data:`FAILED`.
    outcome: str
    #: Recovery actions per shard, e.g. "rolled-back,none,none" ("-"
    #: when no recovery ran); for a failed point, what went wrong.
    detail: str = "-"
    #: Recovery telemetry, summed across shards: allocator block slots
    #: reconciliation scanned, orphaned pages reclaimed, contiguous free
    #: runs they formed, and journaled ops re-executed.
    pages_scanned: int = 0
    reclaimed_pages: int = 0
    reclaimed_runs: int = 0
    replayed_ops: int = 0

    def row(self) -> str:
        """This point's line of the classification table."""
        return (
            f"{self.scenario.scheme}\t{self.scenario.target}\t{self.write}\t"
            f"{self.kind}\t{self.outcome}\t{self.detail}\t"
            f"{self.pages_scanned}\t{self.reclaimed_pages}\t"
            f"{self.reclaimed_runs}\t{self.replayed_ops}"
        )


@dataclasses.dataclass
class SweepReport:
    """Aggregated result of a crash sweep."""

    outcomes: list[SweepPoint] = dataclasses.field(default_factory=list)
    failures: list[SweepPoint] = dataclasses.field(default_factory=list)
    #: Torn-write points skipped because the write was single-page
    #: (single-page writes are atomic and cannot tear).
    atomic_skips: int = 0

    @property
    def clean(self) -> bool:
        return not self.failures

    @property
    def shard_recoveries(self) -> int:
        """Shards recovery had to replay or roll back, over the sweep."""
        return sum(
            action in ("replayed", "rolled-back")
            for point in self.outcomes
            for action in point.detail.split(",")
        )

    def add(
        self,
        scenario: Any,
        kind: str,
        write: int,
        outcome: str,
        problems: list[str],
        **recovery: Any,
    ) -> None:
        """Record one point; any ``problems`` make it a failure."""
        if problems:
            outcome, recovery["detail"] = FAILED, "; ".join(problems)
        point = SweepPoint(scenario, kind, write, outcome, **recovery)
        (self.failures if problems else self.outcomes).append(point)

    def classification_table(self) -> str:
        """TSV classification of every point (the CI artifact).

        ``target`` is what the scenario faulted (an operation, or a
        shard index); the last four columns are the point's recovery
        telemetry (see :class:`SweepPoint`).
        """
        lines = [
            "scheme\ttarget\twrite\tkind\toutcome\trecovery\t"
            "scanned\treclaimed\truns\treplayed"
        ]
        lines.extend(point.row() for point in self.outcomes + self.failures)
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        points = self.outcomes + self.failures
        for label in sorted({p.scenario.label for p in points}):
            tally = collections.Counter(
                p.outcome for p in points if p.scenario.label == label
            )
            failed = tally.pop(FAILED, 0)
            verified = sum(tally.values())
            line = (
                f"{label}: {verified + failed} crash points, "
                f"{verified} recovered ("
                + " ".join(f"{name}={tally[name]}" for name in sorted(tally))
                + ")"
            )
            if failed:
                line += f", {failed} FAILED"
            lines.append(line)
        verdict = "CLEAN" if self.clean else "FAILURES"
        line = (
            f"sweep {verdict}: {len(self.outcomes)} crash points verified, "
            f"{len(self.failures)} failures, "
            f"{self.atomic_skips} atomic single-page writes skipped (torn)"
        )
        if self.shard_recoveries:
            line += f", {self.shard_recoveries} shard recoveries logged"
        lines.append(line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scenario: one mutating operation on one single-store object
# ----------------------------------------------------------------------
class SingleOp(NamedTuple):
    """Crash one (scheme, operation) pair on a plain store.

    Judged from the disk image alone (all in-memory state is considered
    lost): the checksum envelope is intact, the object rebuilds from raw
    images without referencing any page twice, and the rebuilt content
    is bit-identical to the pre- *or* post-operation state (for
    ``create``, "no object yet" — ``absent`` — is the pre-state).
    """

    scheme: str
    op: str
    #: ``False`` is the negative control: in-place updates are *not*
    #: crash-safe, and the sweep is expected to report failures — tests
    #: use this to prove the harness actually detects lost state.
    shadowing: bool = True
    kinds: tuple[str, ...] = ("crash",)

    @property
    def target(self) -> str:
        return self.op

    @property
    def label(self) -> str:
        return f"{self.scheme}/{self.op}"

    def build(self) -> tuple[LargeObjectStore, list[int]]:
        """A fresh store holding the committed pre-state."""
        store = LargeObjectStore(
            self.scheme,
            small_page_config(),
            shadowing=self.shadowing,
            **_scheme_options(self.scheme),
        )
        if self.op == "create":
            return store, []  # create starts from an empty store
        page = store.config.page_size
        oid = store.create(_pattern(8 * page + 37))
        store.insert(oid, 4 * page, _pattern(page + 11, salt=1))
        store.delete(oid, 100, 64)
        return store, [oid]

    def act(self, store: LargeObjectStore, oids: list[int]) -> None:
        page = store.config.page_size
        if self.op == "create":
            oids.append(store.create(_pattern(6 * page + 17, salt=3)))
        elif self.op == "append":
            store.append(oids[0], _pattern(3 * page + 5, salt=4))
        elif self.op == "insert":
            store.insert(
                oids[0], 3 * page + 17, _pattern(2 * page + 9, salt=5)
            )
        elif self.op == "delete":
            store.delete(oids[0], page + 3, 2 * page)
        elif self.op == "overwrite":
            store.replace(oids[0], page // 2, _pattern(2 * page + 1, salt=6))
        else:
            raise InvalidArgumentError(f"unknown sweep operation {self.op!r}")

    def faulted(self, store: LargeObjectStore) -> LargeObjectStore:
        return store

    def judge(
        self,
        store: LargeObjectStore,
        oids: list[int],
        kind: str,
        k: int,
        pre: Contents,
        post: Contents,
        report: SweepReport,
    ) -> None:
        ((target, after),) = post.items()
        before = pre.get(target)
        problems = _checksum_problems(store)
        runs: list[tuple[int, int]] = []
        try:
            content: bytes | None = rebuild_content(store, target, runs)
        except ReproError:
            # The root/descriptor page never made it to disk in a
            # readable form: the image holds no object, which only an
            # uncommitted create may leave behind.
            content = None
        else:
            claimed: set[int] = set()
            for first, count in runs:
                pages = set(range(first, first + count))
                if claimed & pages:
                    problems.append(
                        f"pages {sorted(claimed & pages)} referenced twice "
                        "by the image"
                    )
                claimed |= pages
        if content == after:
            outcome = "post"
        elif before is not None and content == before:
            outcome = "pre"
        elif before is None and content in (None, b""):
            outcome = "absent"
        else:
            outcome = FAILED
            problems.append(
                "rebuilt content matches neither pre- nor post-state "
                f"({len(content) if content is not None else 'no'} "
                "bytes recovered)"
            )
        report.add(self, kind, k, outcome, problems)


# ----------------------------------------------------------------------
# Scenario: one atomic batch across every shard, one shard faulted
# ----------------------------------------------------------------------
class CrossShardBatch(NamedTuple):
    """Fault shard ``target`` during one all-shard atomic batch.

    The batch touches two objects on every shard of an atomic
    :class:`~repro.shard.router.ShardedStore` with mixed op kinds; only
    ``target``'s disk is faulted (sibling shards' I/O counters are
    untouched; journal writes are charged writes like any other).  It
    must be **all-or-nothing**: see :meth:`judge`.  The extra
    ``transient`` kind arms retryable write faults and asserts the batch
    simply completes — the protocol must not confuse a retried write
    with a crash.
    """

    scheme: str
    shards: int
    target: int
    kinds: tuple[str, ...] = ("crash", "torn", "transient")

    @property
    def label(self) -> str:
        return f"{self.scheme}/shard{self.target}"

    def build(self) -> tuple[ShardedStore, list[int]]:
        store = ShardedStore(
            self.scheme,
            small_page_config(),
            shards=self.shards,
            atomic=True,
            **_scheme_options(self.scheme),
        )
        page = store.config.page_size
        return store, [
            store.create(_pattern(3 * page + 21, salt=i))
            for i in range(2 * self.shards)
        ]

    def act(self, store: ShardedStore, oids: list[int]) -> None:
        page = store.config.page_size
        store.submit_many([
            MultiOp(oid, BatchOp(
                "insert", page // 2, 0, _pattern(page - 13, salt=40 + i)
            ))
            if i % 2
            else MultiOp(oid, BatchOp(
                "append", 0, 0, _pattern(page + 17, salt=20 + i)
            ))
            for i, oid in enumerate(oids)
        ])

    def faulted(self, store: ShardedStore) -> LargeObjectStore:
        return store.shards[self.target]

    def judge(
        self,
        store: ShardedStore,
        oids: list[int],
        kind: str,
        k: int,
        pre: Contents,
        post: Contents,
        report: SweepReport,
    ) -> None:
        problems: list[str] = []
        if kind == "transient":
            # The batch ran to completion; there is nothing to recover.
            if _contents(store, oids) != post:
                problems.append("content diverged under retried writes")
            self._fsck(store, problems)
            report.add(self, kind, k, "completed", problems)
            return

        for shard_store in store.shards:
            problems.extend(_checksum_problems(shard_store))
        # Raw-image atomicity is *per shard*: shadowing plus held
        # phase-2 application guarantee each shard's local sub-batch is
        # entirely absent or entirely applied on disk.  Across shards a
        # mid-phase-2 crash legitimately images some shards applied and
        # some not — the durable DECISION then obliges recovery to
        # replay the stragglers forward, which the recovered-state
        # check below enforces.
        images: dict[int, bytes | None] = {}
        for oid in oids:
            shard_store, local = store._route(oid)
            try:
                images[oid] = rebuild_content(shard_store, local)
            except ReproError as exc:
                images[oid] = None
                problems.append(f"oid {oid} unrebuildable: {exc}")
        applied_shards: list[int] = []
        for shard in range(self.shards):
            mine = [oid for oid in oids if store.shard_of(oid) == shard]
            image = [images[oid] for oid in mine]
            if image == [post[oid] for oid in mine]:
                applied_shards.append(shard)
            elif image != [pre[oid] for oid in mine]:
                problems.append(
                    f"ATOMICITY VIOLATION: shard{shard}'s image is "
                    "neither all-pre nor all-post of its sub-batch"
                )

        # Recovered-state atomicity: the authoritative classification.
        # Recovery resolves the journals (rollback or replay) and says
        # what it did on every shard.
        recovery = recover_sharded_store(store).shards
        live = _contents(store, oids)
        if live == pre:
            outcome = "batch-absent"
        elif live == post:
            outcome = "batch-present"
        else:
            outcome = FAILED
            problems.append(
                "ATOMICITY VIOLATION: recovered store reads back "
                "neither the batch-start nor the batch-end state"
            )
        if applied_shards and outcome == "batch-absent":
            # Recovery may roll an all-pre image either way (replay on a
            # durable decision) but must never un-apply durable state.
            problems.append(
                f"recovery rolled back a batch shards {applied_shards} "
                "had already durably applied"
            )
        self._fsck(store, problems)
        report.add(
            self, kind, k, outcome, problems,
            detail=",".join(s.action for s in recovery),
            pages_scanned=sum(s.pages_scanned for s in recovery),
            reclaimed_pages=sum(s.reclaimed_pages for s in recovery),
            reclaimed_runs=sum(s.reclaimed_runs for s in recovery),
            replayed_ops=sum(s.replayed_ops for s in recovery),
        )

    @staticmethod
    def _fsck(store: ShardedStore, problems: list[str]) -> None:
        """Journal-aware per-shard fsck, ``journal_residue`` included."""
        for shard, fsck in enumerate(fsck_sharded_store(store)):
            if not fsck.clean:
                problems.append(f"shard{shard} {fsck.summary()}")


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def sweep(scenario: Any, report: SweepReport | None = None) -> SweepReport:
    """Fault one scenario at every physical write point.

    Points are appended to ``report`` (a fresh one by default), which is
    returned.
    """
    if report is None:
        report = SweepReport()

    # Dry run: learn the faulted disk's write count (journal writes
    # included) and the exact pre/post content.
    store, oids = scenario.build()
    stats = scenario.faulted(store).stats
    pre = _contents(store, oids)
    writes_before = stats.write_calls
    scenario.act(store, oids)
    n_writes = stats.write_calls - writes_before
    post = _contents(store, oids)
    if n_writes < 1 or n_writes > _MAX_WRITES:
        raise ReproError(
            f"{scenario.label}: implausible write count {n_writes}"
        )

    for kind in scenario.kinds:
        # "transient" is one point, not one per write.
        for k in (0,) if kind == "transient" else range(1, n_writes + 1):
            store, oids = scenario.build()
            error: ReproError | None = None
            with FaultInjector(scenario.faulted(store).env, _plan(kind, k)):
                try:
                    scenario.act(store, oids)
                except ReproError as exc:
                    if kind != "transient" and not isinstance(exc, CrashError):
                        raise
                    error = exc
            if kind == "transient" and error is not None:
                report.add(scenario, kind, k, FAILED, [
                    f"retryable faults broke the run: {error}"
                ])
            elif kind == "transient" or error is not None:
                scenario.judge(store, oids, kind, k, pre, post, report)
            elif kind == "torn":
                # Write k was a single page: atomic, cannot tear.
                report.atomic_skips += 1
            else:
                report.add(scenario, kind, k, FAILED, [
                    f"armed crash at write {k} never fired"
                ])
    return report


def run_sweep(scenarios: Sequence[Any]) -> SweepReport:
    """Sweep every scenario, in order, into one report."""
    report = SweepReport()
    for scenario in scenarios:
        sweep(scenario, report)
    return report


# ----------------------------------------------------------------------
# CLI: repro-experiments chaos
# ----------------------------------------------------------------------
def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description=(
            "Crash every mutating operation (or, with --shards, one "
            "atomic cross-shard batch) at every physical write point and "
            "verify the disk image recovers bit-identically."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small"),
        default="tiny",
        help="single-store workload scale (tiny: torn writes on append "
        "only; small: crash and torn sweeps of every operation)",
    )
    parser.add_argument(
        "--scheme",
        choices=("all",) + SWEEP_SCHEMES,
        default="all",
        help="restrict the sweep to one storage manager",
    )
    parser.add_argument(
        "--op",
        choices=("all",) + MUTATING_OPS,
        default="all",
        help="restrict the single-store sweep to one mutating operation",
    )
    parser.add_argument(
        "--no-torn",
        action="store_true",
        help="skip the torn-write variant of each crash point",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the cross-shard atomic sweep over N shards instead of "
        "the single-store sweep (requires N >= 1)",
    )
    parser.add_argument(
        "--table",
        default="",
        help="write the classification table (TSV) to this path",
    )
    args = parser.parse_args(argv)
    if args.shards < 0:
        parser.error("--shards must be non-negative")
    if args.shards and (args.op != "all" or args.scale != "tiny"):
        parser.error(
            "--op and --scale shape the single-store sweep; the --shards "
            "sweep runs one fixed batch"
        )

    schemes = SWEEP_SCHEMES if args.scheme == "all" else (args.scheme,)
    if args.shards:
        kinds = ("crash", "transient") if args.no_torn else (
            "crash", "torn", "transient"
        )
        scenarios: list[Any] = [
            CrossShardBatch(scheme, args.shards, target, kinds)
            for scheme in schemes
            for target in range(args.shards)
        ]
    else:
        ops = MUTATING_OPS if args.op == "all" else (args.op,)
        # Tiny keeps CI smoke fast: torn only on the multi-page-heavy op.
        torn_ops = () if args.no_torn else (
            ops if args.scale == "small" else ("append",)
        )
        scenarios = [
            SingleOp(
                scheme, op,
                kinds=("crash", "torn") if op in torn_ops else ("crash",),
            )
            for scheme in schemes
            for op in ops
        ]

    if args.table:
        # Created before anything is computed: a bad path is a usage
        # error now, not a traceback after the whole sweep.
        try:
            open(args.table, "w", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"--table: cannot write {args.table}: {exc}")
    report = run_sweep(scenarios)
    print(report.summary())  # repro-lint: disable=OBS001
    if args.table:
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write(report.classification_table())
        print(f"classification table written to {args.table}")  # repro-lint: disable=OBS001
    for failure in report.failures:
        print(  # repro-lint: disable=OBS001
            f"FAIL {failure.scenario.label} {failure.kind} at write "
            f"{failure.write}: {failure.detail}"
        )
    return 0 if report.clean else 2
