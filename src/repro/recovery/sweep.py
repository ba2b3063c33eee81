"""Exhaustive crash-sweep recovery verification.

Shadowing's testable guarantee (Section 3.3) is *atomicity at the
physical write granularity*: an operation becomes visible only at its
final root/descriptor write, so a crash before any physical write leaves
the object bit-identical to its pre-operation state, and a crash after
the last write leaves it bit-identical to the post-operation state.

This module turns that guarantee into a machine-checked sweep.  For
every storage manager and every mutating operation, it first dry-runs
the operation on a fresh deterministic store to learn the operation's
physical write count ``W`` and the exact pre/post content, then replays
the same scenario ``W`` times, crashing at write 1, 2, ..., ``W`` via a
:class:`~repro.faults.FaultInjector`.  After each crash the disk image —
and nothing else; all in-memory state is considered lost — is checked:

* the page checksum envelope is intact (``disk.verify_checksums``);
* the object's structure rebuilds from raw images without referencing
  any page twice (:func:`repro.recovery.crash.rebuild_content` with run
  collection);
* the rebuilt content is bit-identical to the pre- *or* post-operation
  state (for ``create``, "no object yet" also counts as the pre-state).

A torn-write variant replays each multi-page write point with only a
prefix of the run persisted before the crash, which must not change the
verdict: shadowing writes new data to *fresh* pages, so even a torn
write never damages committed state.

Run it from the command line as ``repro-experiments chaos``.
"""

from __future__ import annotations

import argparse
import dataclasses
from collections.abc import Sequence

from repro.core.api import LargeObjectStore
from repro.core.config import SystemConfig, small_page_config
from repro.core.errors import CrashError, InvalidArgumentError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.recovery.crash import rebuild_content

__all__ = [
    "MUTATING_OPS",
    "SWEEP_SCHEMES",
    "CrashOutcome",
    "SweepFailure",
    "SweepReport",
    "cli_main",
    "run_sweep",
    "sweep_operation",
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

#: Safety valve: no single (scheme, op) at the sweep scales used here
#: comes anywhere near this many physical writes.
_MAX_WRITES = 2000


def _pattern(n: int, salt: int = 0) -> bytes:
    """Deterministic non-repeating payload (independent of tests)."""
    return bytes((i * 31 + salt * 97 + 7) % 251 for i in range(n))


@dataclasses.dataclass(frozen=True)
class CrashOutcome:
    """One crash point that recovered correctly."""

    scheme: str
    op: str
    crash_write: int
    torn: bool
    #: Which committed state the image rebuilt to: "pre", "post", or
    #: "absent" (a crashed ``create`` that never became durable).
    recovered_to: str


@dataclasses.dataclass(frozen=True)
class SweepFailure:
    """One crash point whose image failed verification."""

    scheme: str
    op: str
    crash_write: int
    torn: bool
    detail: str


@dataclasses.dataclass
class SweepReport:
    """Aggregated result of a crash sweep."""

    outcomes: list[CrashOutcome] = dataclasses.field(default_factory=list)
    failures: list[SweepFailure] = dataclasses.field(default_factory=list)
    #: Torn-write points skipped because the write was single-page
    #: (single-page writes are atomic and cannot tear).
    atomic_skips: int = 0

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        pairs = {(o.scheme, o.op) for o in self.outcomes}
        pairs |= {(f.scheme, f.op) for f in self.failures}
        for scheme, op in sorted(pairs):
            mine = [
                o
                for o in self.outcomes
                if o.scheme == scheme and o.op == op
            ]
            bad = [
                f
                for f in self.failures
                if f.scheme == scheme and f.op == op
            ]
            pre = sum(1 for o in mine if o.recovered_to == "pre")
            post = sum(1 for o in mine if o.recovered_to == "post")
            absent = sum(1 for o in mine if o.recovered_to == "absent")
            line = (
                f"{scheme}/{op}: {len(mine) + len(bad)} crash points, "
                f"{len(mine)} recovered (pre={pre} post={post}"
            )
            if absent:
                line += f" absent={absent}"
            line += ")"
            if bad:
                line += f", {len(bad)} FAILED"
            lines.append(line)
        verdict = "CLEAN" if self.clean else "FAILURES"
        lines.append(
            f"sweep {verdict}: {len(self.outcomes)} crash points verified, "
            f"{len(self.failures)} failures, "
            f"{self.atomic_skips} atomic single-page writes skipped (torn)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scenario construction (deterministic: identical across replays)
# ----------------------------------------------------------------------
def _make_store(
    scheme: str, config: SystemConfig, shadowing: bool = True
) -> LargeObjectStore:
    if scheme not in _SCHEME_OPTIONS:
        raise InvalidArgumentError(f"unknown sweep scheme {scheme!r}")
    return LargeObjectStore(
        scheme, config, shadowing=shadowing, **_SCHEME_OPTIONS[scheme]
    )


def _setup(store: LargeObjectStore, op: str) -> int | None:
    """Build the committed pre-state; returns the object id, if any."""
    if op == "create":
        return None  # create starts from an empty store
    page = store.config.page_size
    oid = store.create(_pattern(8 * page + 37))
    store.insert(oid, 4 * page, _pattern(page + 11, salt=1))
    store.delete(oid, 100, 64)
    return oid


def _apply(store: LargeObjectStore, oid: int | None, op: str) -> int:
    """Run the mutating operation; returns the id of the target object."""
    page = store.config.page_size
    if op == "create":
        return store.create(_pattern(6 * page + 17, salt=3))
    assert oid is not None
    if op == "append":
        store.append(oid, _pattern(3 * page + 5, salt=4))
    elif op == "insert":
        store.insert(oid, 3 * page + 17, _pattern(2 * page + 9, salt=5))
    elif op == "delete":
        store.delete(oid, page + 3, 2 * page)
    elif op == "overwrite":
        store.replace(oid, page // 2, _pattern(2 * page + 1, salt=6))
    else:
        raise InvalidArgumentError(f"unknown sweep operation {op!r}")
    return oid


# ----------------------------------------------------------------------
# Image verification
# ----------------------------------------------------------------------
def _image_fsck(store: LargeObjectStore, target: int) -> tuple[
    bytes | None, list[str]
]:
    """Verify the raw disk image after a crash; in-memory state is dead.

    Returns the rebuilt content (``None`` when the object's root does
    not deserialize — a never-committed ``create``) and a list of image
    problems: checksum damage or a page referenced by two structures.
    """
    problems: list[str] = []
    corrupt = store.env.disk.verify_checksums()
    if corrupt:
        problems.append(f"checksum damage on pages {corrupt}")
    runs: list[tuple[int, int]] = []
    try:
        content: bytes | None = rebuild_content(store, target, runs)
    except ReproError:
        # The root/descriptor page never made it to disk in a readable
        # form — only acceptable for an uncommitted create (the caller
        # checks); the image holds no object.
        return None, problems
    claimed: set[int] = set()
    for first, count in runs:
        pages = set(range(first, first + count))
        overlap = claimed & pages
        if overlap:
            problems.append(
                f"pages {sorted(overlap)} referenced twice by the image"
            )
        claimed |= pages
    return content, problems


def _classify(
    recovered: bytes | None, pre: bytes | None, post: bytes
) -> str | None:
    """Name the committed state the image matches, or None for neither."""
    if recovered == post:
        return "post"
    if pre is not None and recovered == pre:
        return "pre"
    if pre is None and recovered in (None, b""):
        return "absent"
    return None


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def sweep_operation(
    scheme: str,
    op: str,
    *,
    config: SystemConfig | None = None,
    torn: bool = False,
    report: SweepReport | None = None,
    shadowing: bool = True,
) -> SweepReport:
    """Crash one (scheme, operation) pair at every physical write point.

    With ``torn=True``, each crash point is replayed as a torn write
    instead: the scheduled multi-page write persists only a prefix
    before the crash (single-page writes are atomic and skipped).
    ``shadowing=False`` is the negative control: in-place updates are
    *not* crash-safe, and the sweep is expected to report failures —
    tests use this to prove the harness actually detects lost state.
    """
    if config is None:
        config = small_page_config()
    if report is None:
        report = SweepReport()

    # Dry run: learn the write count and the exact pre/post content.
    store = _make_store(scheme, config, shadowing)
    oid = _setup(store, op)
    pre = bytes(store.read(oid, 0, store.size(oid))) if oid is not None else None
    writes_before = store.stats.write_calls
    target = _apply(store, oid, op)
    n_writes = store.stats.write_calls - writes_before
    post = bytes(store.read(target, 0, store.size(target)))
    if n_writes < 1 or n_writes > _MAX_WRITES:
        raise ReproError(
            f"{scheme}/{op}: implausible write count {n_writes}"
        )

    for k in range(1, n_writes + 1):
        store = _make_store(scheme, config, shadowing)
        setup_oid = _setup(store, op)
        if torn:
            plan = FaultPlan(torn_writes=at(k))
        else:
            plan = FaultPlan(crash_writes=at(k))
        crashed = False
        with FaultInjector(store.env, plan):
            try:
                _apply(store, setup_oid, op)
            except CrashError:
                crashed = True
        if not crashed:
            if torn:
                # Write k was a single page: atomic, cannot tear.
                report.atomic_skips += 1
                continue
            report.failures.append(
                SweepFailure(
                    scheme, op, k, torn,
                    f"armed crash at write {k} never fired",
                )
            )
            continue
        recovered, problems = _image_fsck(store, target)
        state = _classify(recovered, pre, post)
        if state is None:
            problems.append(
                "rebuilt content matches neither pre- nor post-state "
                f"({len(recovered) if recovered is not None else 'no'} "
                "bytes recovered)"
            )
        if problems:
            report.failures.append(
                SweepFailure(scheme, op, k, torn, "; ".join(problems))
            )
        else:
            assert state is not None
            report.outcomes.append(
                CrashOutcome(scheme, op, k, torn, state)
            )
    return report


def run_sweep(
    schemes: Sequence[str] = SWEEP_SCHEMES,
    ops: Sequence[str] = MUTATING_OPS,
    *,
    config: SystemConfig | None = None,
    torn: bool = True,
) -> SweepReport:
    """Sweep every (scheme, op) pair; optionally also the torn variant."""
    report = SweepReport()
    for scheme in schemes:
        for op in ops:
            sweep_operation(scheme, op, config=config, report=report)
            if torn:
                sweep_operation(
                    scheme, op, config=config, torn=True, report=report
                )
    return report


# ----------------------------------------------------------------------
# CLI: repro-experiments chaos
# ----------------------------------------------------------------------
def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description=(
            "Crash every mutating operation at every physical write "
            "point and verify the disk image recovers bit-identically."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small"),
        default="tiny",
        help="workload scale (tiny: 128-byte pages; small: same config, "
        "both crash and torn sweeps)",
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
        help="restrict the sweep to one mutating operation",
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
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the cross-shard sweep (with --shards)",
    )
    parser.add_argument(
        "--table",
        default="",
        help="write the cross-shard classification table (TSV) to this "
        "path (with --shards)",
    )
    args = parser.parse_args(argv)
    if args.shards < 0:
        parser.error("--shards must be non-negative")
    if args.shards == 0 and (args.jobs != 1 or args.table):
        parser.error("--jobs and --table require --shards")

    if args.shards > 0:
        from repro.recovery.shard_sweep import cli_main as shard_cli_main

        return shard_cli_main(args)

    schemes = SWEEP_SCHEMES if args.scheme == "all" else (args.scheme,)
    ops = MUTATING_OPS if args.op == "all" else (args.op,)
    torn = not args.no_torn and args.scale != "tiny"
    if args.scale == "tiny" and not args.no_torn:
        # Tiny keeps CI smoke fast: torn only on the multi-page-heavy op.
        report = run_sweep(schemes, ops, torn=False)
        for scheme in schemes:
            if "append" in ops:
                sweep_operation(scheme, "append", torn=True, report=report)
    else:
        report = run_sweep(schemes, ops, torn=torn)
    print(report.summary())  # repro-lint: disable=OBS001
    if not report.clean:
        for failure in report.failures:
            kind = "torn" if failure.torn else "crash"
            print(  # repro-lint: disable=OBS001
                f"FAIL {failure.scheme}/{failure.op} {kind} at write "
                f"{failure.crash_write}: {failure.detail}"
            )
        return 2
    return 0
