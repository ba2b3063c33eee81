"""Storage consistency checking (an fsck for the simulated database).

Cross-verifies the two sources of truth the storage system maintains:
the *logical* one (which pages each object's committed disk image
references, as the manager's ``image_extents`` walks it) and the
*physical* one (which pages the buddy allocator believes are
allocated).  Detects:

* **dangling references** — an object references a page the allocator
  considers free;
* **double references** — two objects (or two parts of one) claim the
  same page;
* **leaks** — allocated pages no object references;
* **checksum damage** — recorded pages whose stored content no longer
  matches the page envelope's CRC (silent corruption, e.g. planted by
  :class:`repro.faults.FaultInjector`), and objects whose first page
  (root, descriptor or directory) does not parse.

Used by the test suite after long randomized workloads; also a useful
debugging aid when developing new update algorithms.
"""

from __future__ import annotations

import dataclasses
from typing import Collection

from repro.buddy.allocator import BuddyAllocator
from repro.core.errors import (
    ContractViolationError,
    InvalidArgumentError,
    StorageCorruptionError,
)
from repro.core.manager import LargeObjectManager


@dataclasses.dataclass
class FsckReport:
    """Outcome of a consistency check."""

    dangling: list[tuple[int, int]]  # (object id, page id)
    doubly_referenced: list[int]
    leaked_data_pages: list[int]
    leaked_meta_pages: list[int]
    #: Recorded pages whose content fails CRC verification, and objects'
    #: first pages that do not parse.
    corrupt_pages: list[int] = dataclasses.field(default_factory=list)
    #: Intent-journal pages still holding an *unresolved* batch record
    #: (a PREPARE that was never applied or cleaned) — crash recovery
    #: was needed but never ran.  Distinct from generic leaks: the pages
    #: are deliberately reserved, but their content demands resolution.
    journal_residue: list[int] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no inconsistency of any kind was found."""
        return not (
            self.dangling
            or self.doubly_referenced
            or self.leaked_data_pages
            or self.leaked_meta_pages
            or self.corrupt_pages
            or self.journal_residue
        )

    def summary(self) -> str:
        """One-line human rendering."""
        if self.clean:
            return "fsck: clean"
        return (
            f"fsck: {len(self.dangling)} dangling, "
            f"{len(self.doubly_referenced)} double refs, "
            f"{len(self.leaked_data_pages)} leaked data pages, "
            f"{len(self.leaked_meta_pages)} leaked meta pages, "
            f"{len(self.corrupt_pages)} corrupt pages, "
            f"{len(self.journal_residue)} journal-residue pages"
        )


def check(
    managers_and_oids: list[tuple[LargeObjectManager, list[int]]],
    journals: "list | None" = None,
) -> FsckReport:
    """Check consistency between objects and their shared environment.

    All managers must share one :class:`StorageEnvironment`.  Meta pages
    not referenced by any given object (e.g. record pages of layers not
    passed in) are *not* reported as leaks unless no caller could own
    them — only data-area leaks are exact; meta leaks are computed
    against the pages the given objects reference.

    ``journals`` (any objects with ``pages()`` and ``residue_pages()``,
    i.e. :class:`repro.atomic.journal.IntentJournal` instances sharing
    the environment) makes the check journal-aware: the reserved journal
    regions are excluded from the leak classes, and pages holding an
    unresolved batch record are reported as the distinct
    ``journal_residue`` class instead.
    """
    if not managers_and_oids:
        raise InvalidArgumentError("nothing to check")
    env = managers_and_oids[0][0].env
    referenced_data: dict[int, int] = {}
    referenced_meta: dict[int, int] = {}
    dangling: list[tuple[int, int]] = []
    double: set[int] = set()
    corrupt: set[int] = set()

    for manager, oids in managers_and_oids:
        if manager.env is not env:
            raise InvalidArgumentError("managers do not share an environment")
        for oid in oids:
            try:
                runs = [(e.meta, e.pages) for e in manager.image_extents(oid)]
            except ContractViolationError:  # a failed self-check is a bug
                raise
            except StorageCorruptionError:
                # The object's first (meta) page does not parse: it is
                # corrupt, and the pages only it referenced show as leaked.
                corrupt.add(oid)
                runs = [(True, (oid,))]
            for meta, pages in runs:
                referenced = referenced_meta if meta else referenced_data
                for page in pages:
                    if page in referenced:
                        double.add(page)
                    referenced[page] = oid

    # Dangling: referenced but not allocated.
    for referenced, allocator in (
        (referenced_data, env.areas.data),
        (referenced_meta, env.areas.meta),
    ):
        for page, oid in referenced.items():
            if not allocator.is_allocated(page):
                dangling.append((oid, page))

    journal_pages: set[int] = set()
    residue: set[int] = set()
    for journal in journals or ():
        journal_pages |= journal.pages()
        residue |= set(journal.residue_pages())

    return FsckReport(
        dangling=sorted(dangling),
        doubly_referenced=sorted(double),
        leaked_data_pages=unreferenced_pages(env.areas.data, referenced_data),
        leaked_meta_pages=unreferenced_pages(
            env.areas.meta, referenced_meta, journal_pages
        ),
        corrupt_pages=sorted(corrupt.union(env.disk.verify_checksums())),
        journal_residue=sorted(residue),
    )


def check_after_workload(
    scheme: str,
    *,
    object_bytes: int = 20_000,
    n_ops: int = 500,
    mean_op_size: int = 100,
    seed: int = 7,
) -> FsckReport:
    """Run a seeded random workload on a fresh store, then fsck it.

    Builds a small-page store of the given scheme, creates one object of
    ``object_bytes`` zero bytes, applies ``n_ops`` random operations from
    the paper's workload generator, and cross-checks the surviving object
    structure against the buddy allocator.
    """
    from repro.core.api import LargeObjectStore
    from repro.core.config import small_page_config
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.runner import WorkloadRunner

    store = LargeObjectStore(
        scheme, small_page_config(), record_data=False
    )
    oid = store.create(bytes(object_bytes))
    generator = WorkloadGenerator(store.size(oid), mean_op_size, seed=seed)
    WorkloadRunner(store.manager, oid, generator).run(
        n_ops, window=max(1, n_ops)
    )
    return check([(store.manager, [oid])])


def check_atomic_sharded(
    scheme: str,
    *,
    shards: int = 4,
    n_batches: int = 6,
    seed: int = 7,
) -> list[FsckReport]:
    """Run seeded cross-shard atomic batches, then fsck every shard.

    Builds an atomic :class:`~repro.shard.router.ShardedStore` of the
    given scheme, creates a few objects per shard, drives ``n_batches``
    deterministic multi-object batches through the two-phase commit
    path, and returns the journal-aware per-shard reports.  With no
    crash in the workload every report is clean; leftover intent
    records would surface as the ``journal_residue`` class.
    """
    import random

    from repro.core.config import small_page_config
    from repro.exec.plan import BatchOp, MultiOp
    from repro.recovery.atomic import fsck_sharded_store
    from repro.shard.router import ShardedStore

    store = ShardedStore(
        scheme, small_page_config(), shards=shards, atomic=True
    )
    rng = random.Random(seed)
    page = store.config.page_size
    oids = [
        store.create(bytes((i * 37 + j) % 251 for j in range(3 * page + 19)))
        for i in range(2 * shards)
    ]
    for _ in range(n_batches):
        mops = []
        for oid in rng.sample(oids, k=max(2, shards)):
            size = store.size(oid)
            kind = rng.choice(("append", "insert", "delete", "replace"))
            blob = bytes(rng.randrange(251) for _ in range(rng.randrange(1, page)))
            if kind == "append":
                mops.append(MultiOp(oid, BatchOp("append", 0, 0, blob)))
            elif kind == "insert":
                mops.append(MultiOp(
                    oid, BatchOp("insert", rng.randrange(size), 0, blob)
                ))
            elif kind == "delete" and size > 2:
                nbytes = rng.randrange(1, min(size // 2, page))
                mops.append(MultiOp(oid, BatchOp(
                    "delete", rng.randrange(size - nbytes), nbytes, b""
                )))
            else:
                span = min(len(blob), size - 1)
                mops.append(MultiOp(oid, BatchOp(
                    "replace", rng.randrange(size - span), 0, blob[:span]
                )))
        store.submit_many(mops)
    return fsck_sharded_store(store)


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments fsck``.

    Exit status is 0 when every checked scheme is clean and 2 when any
    inconsistency (dangling/double/leaked/journal-residue pages) was
    detected.
    """
    import argparse

    from repro.core.api import ALL_SCHEMES, SCHEMES

    parser = argparse.ArgumentParser(
        prog="repro-experiments fsck",
        description=(
            "Run a seeded random workload against each storage scheme and "
            "cross-check the object structures against the buddy allocator."
        ),
    )
    parser.add_argument(
        "--scheme",
        default="all",
        choices=("all",) + ALL_SCHEMES,
        help="scheme to check (default: all)",
    )
    parser.add_argument(
        "--ops", type=int, default=500, help="operations to run (default 500)"
    )
    parser.add_argument(
        "--mean-op",
        type=int,
        default=100,
        help="mean operation size in bytes (default 100)",
    )
    parser.add_argument(
        "--object-bytes",
        type=int,
        default=20_000,
        help="initial object size in bytes (default 20000)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload RNG seed (default 7)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="also drive cross-shard atomic batches on an N-shard store "
        "and run the journal-aware per-shard check (default: off)",
    )
    args = parser.parse_args(argv)
    if args.shards < 0:
        parser.error("--shards must be non-negative")
    schemes = ALL_SCHEMES if args.scheme == "all" else (args.scheme,)
    dirty = False
    for scheme in schemes:
        report = check_after_workload(
            scheme,
            object_bytes=args.object_bytes,
            n_ops=args.ops,
            mean_op_size=args.mean_op,
            seed=args.seed,
        )
        print(f"{scheme}: {report.summary()}")  # repro-lint: disable=OBS001
        dirty = dirty or not report.clean
    if args.shards > 0:
        # The block-based baseline has no shadowing, hence no atomic
        # batch story; the sharded pass covers the paper's schemes.
        for scheme in schemes:
            if scheme not in SCHEMES:
                continue
            reports = check_atomic_sharded(
                scheme, shards=args.shards, seed=args.seed
            )
            for shard, report in enumerate(reports):
                print(  # repro-lint: disable=OBS001
                    f"{scheme}@shards{args.shards} shard{shard}: "
                    f"{report.summary()}"
                )
                dirty = dirty or not report.clean
    return 2 if dirty else 0


def unreferenced_pages(
    allocator: BuddyAllocator,
    referenced: Collection[int],
    keep: Collection[int] = frozenset(),
) -> list[int]:
    """Allocated pages of the area neither referenced nor in ``keep``,
    ascending: fsck's leak classes and recovery's orphans."""
    return [
        page
        for page in allocator.allocated_page_ids()
        if page not in referenced and page not in keep
    ]
