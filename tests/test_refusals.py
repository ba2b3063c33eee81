"""A refused operation changes nothing: one table, one judge.

Shadowing (Section 3.3) keeps the committed image on disk, so a call the
system refuses must leave the store exactly as it was.  Each row of
``REFUSALS`` builds a subject, makes one call that must be refused, and
names a valid call to make next.  Every row is judged alike:

* the call raises the row's ``ReproError`` subclass, matching its text;
* ``fingerprint`` (tests/conftest.py) is the same before and after it;
* a store still matches its ``ObjectModel`` and fsck is clean; a bare
  environment's areas and a row's tree pass their invariant checks;
* the next call succeeds, and afterwards the subject's fingerprint
  equals that of a twin built alike that never saw the refused call:
  this catches what the fingerprint cannot read, such as a tree's
  dirty set, whose leaked mark becomes an extra flush.
"""

from __future__ import annotations

import dataclasses
import re
from functools import partial
from typing import Callable

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.api import ALL_SCHEMES, LargeObjectStore
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import (
    AllocationError,
    BufferPoolError,
    ByteRangeError,
    InvalidArgumentError,
    LongFieldTooLargeError,
    ObjectTooLargeError,
    PageFullError,
    ReproError,
    StorageCorruptionError,
)
from repro.core.file import LargeObjectFile
from repro.core.fsck import check
from repro.core.payload import SizedPayload
from repro.exec.plan import MultiOp, append_op, replace_op
from repro.records.schema import Schema, SchemaError
from repro.records.store import RecordStore
from repro.recovery.atomic import fsck_sharded_store, recover_sharded_store
from repro.shard.router import ShardedStore
from repro.tree.node import MAX_OBJECT_BYTES, LeafExtent
from repro.tree.tree import PositionalTree
from repro.workload.model import ObjectModel
from tests.conftest import end_op, fingerprint, pattern_bytes

SMALL = small_page_config()
PAGE = SMALL.page_size
GIB = 1 << 30
#: The paper's configuration at 256 KB pages: 4 GiB is 16,384 of them.
BIG_PAGES = dataclasses.replace(PAPER_CONFIG, page_size=1 << 18)


@dataclasses.dataclass
class Subject:
    """What a builder made: ``target`` is fingerprinted, ``ids`` are its
    object ids (page ids for a bare environment)."""

    target: StorageEnvironment | LargeObjectStore | ShardedStore
    model: ObjectModel | None = None
    ids: list[int] = dataclasses.field(default_factory=list)
    tree: PositionalTree | None = None
    records: RecordStore | None = None


@dataclasses.dataclass(frozen=True)
class Refusal:
    """One row; ``xfail`` names the open item the row waits for."""

    build: Callable[[], Subject]
    refused: Callable[[Subject], object]
    error: type[ReproError]
    match: str
    then: Callable[[Subject], object]
    xfail: str = ""


def _holding(store, *contents) -> Subject:
    """``store`` with one object per content created in it, and its model."""
    subject = Subject(store, ObjectModel())
    for data in contents:
        oid = store.create(data)
        subject.model.create(oid, data)
        subject.ids.append(oid)
    return subject


def _segmented(scheme) -> Subject:
    """One object of 5 pages + 40 bytes built by six appends: on
    Starburst, segments of 1, 2 and 4 pages."""
    subject = _holding(LargeObjectStore(scheme, SMALL), b"")
    for salt in range(6):
        data = pattern_bytes(PAGE if salt < 5 else 40, salt=salt)
        subject.model.run(subject.target, MultiOp(subject.ids[0], append_op(data)))
    return subject


def _phantom(scheme, *sizes, **options) -> Subject:
    """A phantom store at 256 KB pages holding objects of ``sizes``, each
    grown by appends of at most 1 GiB."""
    store = LargeObjectStore(scheme, BIG_PAGES, record_data=False, **options)
    subject = Subject(store)
    for size in sizes:
        oid = store.create()
        while store.size(oid) < size:
            store.append(oid, SizedPayload(min(GIB, size - store.size(oid))))
        subject.ids.append(oid)
    return subject


def _tree_of_phantom() -> Subject:
    """A phantom EOS object ten bytes short of the limit, and its tree."""
    store = LargeObjectStore("eos", BIG_PAGES, record_data=False)
    oid = store.create(SizedPayload(MAX_OBJECT_BYTES - 10))
    return Subject(store, ids=[oid], tree=store.manager.tree_of(oid))


def _tree(*sizes) -> Subject:
    """A bare tree over data-area extents of ``sizes``, its op closed and
    the next one open."""
    env = StorageEnvironment(SMALL)
    tree = PositionalTree(SMALL, env.pool, env.areas.meta, data_base=DATA_AREA_BASE)
    tree.create()
    for size in sizes:
        pages = -(-size // PAGE)
        tree.append_extent(LeafExtent(env.areas.data.allocate(pages), size, pages))
    end_op(tree)
    tree.begin_op()
    return Subject(env, tree=tree)


def _pinned_pool(*, pin_resident=False) -> Subject:
    """Four frames, three pinned, page 50 resident (pinned too if asked)."""
    env = StorageEnvironment(small_page_config(buffer_pool_pages=4))
    for page in (10, 11, 12):
        env.pool.fix(page)
    env.pool.read_run(50, 1)
    if pin_resident:
        env.pool.fix(50)
    return Subject(env)


def _pinned_over_written_pages() -> Subject:
    """Four frames, all pinned, over two written data pages whose area's
    directory page the pins evicted."""
    env = StorageEnvironment(small_page_config(buffer_pool_pages=4))
    page = env.areas.data.allocate(2)
    env.pool.write_run(page, 2, pattern_bytes(2 * PAGE))
    for pinned in (10, 11, 12, 13):
        env.pool.fix(pinned)
    assert not env.pool.is_resident(DATA_AREA_BASE)
    return Subject(env, ids=[page])


def _freed_half() -> Subject:
    """Four written data pages, two of them cached; the last two freed."""
    env = StorageEnvironment(SMALL)
    page = env.areas.data.allocate(4)
    env.pool.write_run(page, 4, pattern_bytes(4 * PAGE))
    env.pool.read_run(page, 2)
    env.areas.data.free(page + 2, 2)
    return Subject(env, ids=[page])


def _two_shards() -> Subject:
    """2 atomic ESM shards (paper configuration), a 40,000 B object each."""
    store = ShardedStore("esm", shards=2, atomic=True)
    subject = _holding(store, *(pattern_bytes(40_000, salt) for salt in (0, 1)))
    assert [store.shard_of(oid) for oid in subject.ids] == [0, 1]
    return subject


def _blockbased_shards() -> Subject:
    """2 atomic block-based shards, four objects read into the pools."""
    store = ShardedStore("blockbased", SMALL, shards=2, atomic=True)
    subject = _holding(store, *(pattern_bytes(300, salt) for salt in range(4)))
    for oid in subject.ids:
        store.read(oid, 0, 300)
    return subject


def _records() -> Subject:
    """An EOS store holding one object, and an empty record store over it
    whose records have a long field (fsck would count a record page as
    a leak)."""
    subject = _holding(LargeObjectStore("eos", SMALL), pattern_bytes(300))
    subject.records = RecordStore(Schema.of(name="text", content="long"),
                                  subject.target.manager)
    return subject


def _tree_then(change) -> Callable[[Subject], object]:
    """End the refused call's op, where a leaked dirty mark would flush,
    then make ``change`` to the tree in an op of its own."""
    return lambda s: (end_op(s.tree), s.tree.begin_op(), change(s.tree),
                      end_op(s.tree))


def _batch(*pairs) -> Callable[[Subject], object]:
    """Submit one batch of ``(object index, op)`` pairs."""
    return lambda s: s.target.submit_many(
        [MultiOp(s.ids[index], op) for index, op in pairs]
    )


REFUSALS: dict[str, Refusal] = {}

# The pool refuses a run that cannot fit beside the pinned frames before
# a hit or miss is counted, a page pinned or a frame evicted.
for name, build, start, n_pages in (
    ("partly-resident-run", _pinned_pool, 50, 2),
    ("run-with-nothing-resident", _pinned_pool, 60, 2),
    ("one-page-on-a-fully-pinned-pool",
     lambda: _pinned_pool(pin_resident=True), 60, 1),
):
    REFUSALS[f"pool-{name}"] = Refusal(
        build,
        lambda s, start=start, n_pages=n_pages: s.target.pool.read_run(start, n_pages),
        BufferPoolError, "pinned",
        lambda s: s.target.pool.read_run(50, 1),        # a hit needs no room
    )

# So does a one-page touch, pinned or not.
for method in ("fix", "access"):
    REFUSALS[f"pool-{method}-on-a-fully-pinned-pool"] = Refusal(
        lambda: _pinned_pool(pin_resident=True),
        lambda s, method=method: getattr(s.target.pool, method)(60),
        BufferPoolError, "pinned",
        lambda s: s.target.pool.read_run(50, 1),
    )

# A free that names an already-free block is refused before the resident
# copies and the content of its live pages are dropped.
REFUSALS["buddy-free-of-a-free-block"] = Refusal(
    _freed_half,
    lambda s: s.target.areas.data.free(s.ids[0], 4),
    AllocationError, "block 2 is already free",
    lambda s: s.target.areas.data.free(s.ids[0], 2),
)
# So is a free whose directory visit the pool cannot make room for, and
# a first allocation whose new directory page it cannot hold: the area
# neither loses the pages' content nor grows.
REFUSALS["buddy-free-on-a-fully-pinned-pool"] = Refusal(
    _pinned_over_written_pages,
    lambda s: s.target.areas.data.free(s.ids[0], 2),
    BufferPoolError, "pinned",
    lambda s: (s.target.pool.unfix(13), s.target.areas.data.free(s.ids[0], 2)),
)
REFUSALS["buddy-allocate-on-a-fully-pinned-pool"] = Refusal(
    lambda: _pinned_pool(pin_resident=True),
    lambda s: s.target.areas.data.allocate(1),
    BufferPoolError, "pinned",
    lambda s: (s.target.pool.unfix(50), s.target.areas.data.allocate(1)),
)

# A span must cover whole extents inside the object.
REFUSALS["tree-span-ends-inside-an-extent"] = Refusal(
    lambda: _tree(100, 50, 30),
    lambda s: s.tree.replace_span(0, 120, []),
    StorageCorruptionError, "not extent-aligned",
    _tree_then(lambda tree: tree.replace_span(100, 50, [])),
)
for start, nbytes in ((0, -1), (-1, 1), (150, 40), (181, 0), (0, 181)):
    REFUSALS[f"tree-span-{start},{nbytes}-outside-the-object"] = Refusal(
        lambda: _tree(100, 50, 30),
        lambda s, start=start, nbytes=nbytes: s.tree.replace_span(start, nbytes, []),
        ByteRangeError, "outside object of 180 bytes",
        _tree_then(lambda tree: tree.replace_span(100, 50, [])),
    )

# The tree's own mutators refuse growth past 2**32 - 1 bytes: not every
# caller is a manager.
_BIG = LeafExtent(DATA_AREA_BASE + 10**6, 11, 1)
for name, refused in {
    "append_extent": lambda s: s.tree.append_extent(_BIG),
    "replace_span-insert": lambda s: s.tree.replace_span(0, 0, [_BIG]),
    "replace_span-grow": lambda s: s.tree.replace_span(
        0, s.tree.locate(0).extent.used_bytes,
        [s.tree.locate(0).extent._replace(
            used_bytes=s.tree.locate(0).extent.used_bytes + 11)],
    ),
    "update_extent": lambda s: s.tree.update_extent(
        s.tree.locate(5), used_bytes=s.tree.locate(5).extent.used_bytes + 11
    ),
}.items():
    REFUSALS[f"tree-{name}-past-the-limit"] = Refusal(
        _tree_of_phantom, refused, ObjectTooLargeError, "4294967295",
        _tree_then(lambda tree: tree.append_extent(_BIG._replace(used_bytes=10))),
    )

# Managers refuse growth past the limit before their first segment
# write.  Four 1 GiB appends to EOS used to die in ``end_op`` after the
# tree had changed, and so did every operation after it.
_EOS_3GIB = partial(_phantom, "eos", 3 * GIB)
_EOS_FULL = partial(_phantom, "eos", MAX_OBJECT_BYTES)
_ESM_NEARLY_FULL = partial(_phantom, "esm", MAX_OBJECT_BYTES - 100, leaf_pages=512)
for name, build, refused in (
    ("eos-append-of-the-fourth-gib", _EOS_3GIB,
     lambda s: s.target.append(s.ids[0], SizedPayload(GIB))),
    ("eos-insert-of-the-fourth-gib", _EOS_3GIB,
     lambda s: s.target.insert(s.ids[0], 12345, SizedPayload(GIB))),
    ("eos-append-to-a-full-object", _EOS_FULL,
     lambda s: s.target.append(s.ids[0], b"y")),
    ("eos-insert-at-0-of-a-full-object", _EOS_FULL,
     lambda s: s.target.insert(s.ids[0], 0, b"y")),
    ("eos-insert-at-the-end-of-a-full-one", _EOS_FULL,
     lambda s: s.target.insert(s.ids[0], MAX_OBJECT_BYTES, b"y")),
    ("esm-insert-past-the-limit", _ESM_NEARLY_FULL,
     lambda s: s.target.insert(s.ids[0], GIB + 3, b"z" * 101)),
    ("esm-append-past-the-limit", _ESM_NEARLY_FULL,
     lambda s: s.target.append(s.ids[0], b"z" * 101)),
):
    REFUSALS[f"limit-{name}"] = Refusal(
        build, refused, ObjectTooLargeError, "4294967295",
        # Within the limit, the same growth works.
        lambda s: (s.target.delete(s.ids[0], GIB, 5),
                   s.target.insert(s.ids[0], 77, b"12345")),
    )
REFUSALS["limit-eos-create-past-the-limit"] = Refusal(
    lambda: _phantom("eos"),
    lambda s: s.target.create(SizedPayload(4 * GIB)),
    ObjectTooLargeError, "4294967295",
    lambda s: s.target.create(b"x"),
)

# Starburst refuses growth past its descriptor's 25 pointers (of 128-page
# segments at small pages) before the first allocation: a create used to
# write 26 segments first, an insert to allocate its whole new tail, and
# an append to untrim and fill the last segment.
_SEGMENT_BYTES = SMALL.max_segment_pages * PAGE


def _nearly_full_field() -> Subject:
    """A Starburst field one page short of 25 full segments."""
    return _holding(LargeObjectStore("starburst", SMALL),
                    pattern_bytes(25 * _SEGMENT_BYTES - PAGE))


for name, build, refused, then in (
    ("create", lambda: _holding(LargeObjectStore("starburst", SMALL)),
     lambda s: s.target.create(SizedPayload(26 * _SEGMENT_BYTES)),
     lambda s: s.target.create(SizedPayload(25 * _SEGMENT_BYTES))),
    ("insert", _nearly_full_field,
     lambda s: s.target.insert(s.ids[0], 10, SizedPayload(5 * PAGE)),
     lambda s: s.target.insert(s.ids[0], 10, b"<inserted>")),
    ("append", _nearly_full_field,
     lambda s: s.target.append(s.ids[0], SizedPayload(5 * PAGE)),
     lambda s: s.target.append(s.ids[0], b"<appended>")),
):
    REFUSALS[f"starburst-{name}-past-the-descriptor"] = Refusal(
        build, refused, LongFieldTooLargeError, "holds at most 25 pointers",
        then,
    )

# A file view's write grows the object by one append, of the zero gap
# and the bytes past the end, before it replaces the bytes it overlaps:
# the field refuses it before a byte lands.  It used to append the gap,
# or replace the overlap, first.


def _file_write(offset: int, data: bytes) -> Callable[[Subject], object]:
    """Write ``data`` at ``offset`` through a file view of the object."""

    def write(s: Subject) -> object:
        view = LargeObjectFile(s.target.manager, s.ids[0])
        view.seek(offset)
        return view.write(data)

    return write


_FULL_FIELD = 25 * _SEGMENT_BYTES
for name, build, offset, data in (
    ("past-the-end-of-an-empty-field",
     lambda: _holding(LargeObjectStore("starburst", SMALL), b""),
     _FULL_FIELD - 3, b"0123456789"),
    ("across-the-end-of-a-nearly-full-field", _nearly_full_field,
     _FULL_FIELD - PAGE - 5, pattern_bytes(PAGE + 10)),
):
    REFUSALS[f"file-write-{name}"] = Refusal(
        build, _file_write(offset, data),
        LongFieldTooLargeError, "holds at most 25 pointers",
        # Up to the last byte the field holds, the same write works.
        _file_write(_FULL_FIELD - 10, b"0123456789"),
    )

# A byte range outside the object is refused before any I/O.
_BAD_RANGES = {
    "read-at-size": lambda st, oid, size: st.read(oid, size, 1),
    "read-before-0": lambda st, oid, size: st.read(oid, -1, 1),
    "read-across-the-end": lambda st, oid, size: st.read(oid, 2 * PAGE, size),
    "empty-read-past-the-end": lambda st, oid, size: st.read(oid, size + 7, 0),
    "insert-past-the-end": lambda st, oid, size: st.insert(oid, size + 1, b"x"),
    "insert-before-0": lambda st, oid, size: st.insert(oid, -1, b"x"),
    "delete-at-size": lambda st, oid, size: st.delete(oid, size, 1),
    "delete-across-the-end": lambda st, oid, size: st.delete(oid, 3 * PAGE, size),
    "delete-before-0": lambda st, oid, size: st.delete(oid, -PAGE, PAGE),
    "replace-across-the-end": lambda st, oid, size: st.replace(oid, size - 1, b"xy"),
    "replace-before-0": lambda st, oid, size: st.replace(oid, -1, b"x"),
}
for scheme in ALL_SCHEMES:
    for name, call in _BAD_RANGES.items():
        REFUSALS[f"range-{scheme}-{name}"] = Refusal(
            lambda scheme=scheme: _segmented(scheme),
            lambda s, call=call: call(s.target, s.ids[0], 5 * PAGE + 40),
            ByteRangeError, "outside object",
            lambda s: s.target.insert(s.ids[0], 7, b"<inserted>"),
        )

# A payload that is neither bytes-like nor sized is refused before the
# first allocation or charged call, on every path a payload enters by.
for name, scheme, write in (
    ("esm-create", "esm", lambda st, oid, data: st.create(data)),
    ("starburst-insert", "starburst",
     lambda st, oid, data: st.insert(oid, 10, data)),
    ("eos-append", "eos", lambda st, oid, data: st.append(oid, data)),
    ("blockbased-replace", "blockbased",
     lambda st, oid, data: st.replace(oid, 0, data)),
    ("esm-submit_ops", "esm",
     lambda st, oid, data: st.submit_ops(oid, [append_op(data)])),
):
    REFUSALS[f"payload-{name}-of-a-str"] = Refusal(
        lambda scheme=scheme: _holding(
            LargeObjectStore(scheme, SMALL), pattern_bytes(5000)
        ),
        lambda s, write=write: write(s.target, s.ids[0], "abc"),
        InvalidArgumentError, "str",
        lambda s, write=write: write(s.target, s.ids[0], b"abc"),
    )

# A record naming fields its schema lacks is refused before any of its
# long fields is created; the message names them all, sorted, whatever
# the order of the call and of the hash seed.
_UNKNOWN = {"zulu": 1, "alpha": 2, "mike": 3, "echo": 4, "kilo": 5}
REFUSALS["records-insert-of-unknown-fields"] = Refusal(
    _records,
    lambda s: s.records.insert(name="x", content=b"abc", **_UNKNOWN),
    SchemaError,
    "^" + re.escape("unknown fields: ['alpha', 'echo', 'kilo', 'mike', 'zulu']")
    + "$",
    lambda s: s.records.insert(name="x", content=b"abc"),
)

# A record longer than a page is refused before its long field is
# created or a record page allocated: the long field serializes as an
# 8-byte oid, so the record's size is known first.
REFUSALS["records-insert-larger-than-a-page"] = Refusal(
    _records,
    lambda s: s.records.insert(name="x" * PAGE, content=pattern_bytes(300)),
    PageFullError,
    "^" + re.escape("record of 140 bytes does not fit a page (at most 116)")
    + "$",
    lambda s: s.records.insert(name="x", content=b"abc"),
)

# Atomic batches.  Shard 1's PREPARE needs 8 pages of its 6-page area:
# the batch is refused before shard 0 journals or runs its op.
_NEXT_BATCH = _batch((0, replace_op(0, b"Z" * 100)), (1, replace_op(7, b"Y" * 100)))
REFUSALS["atomic-batch-whose-prepare-cannot-fit"] = Refusal(
    _two_shards,
    _batch((0, replace_op(0, b"Z" * 100)),
           (1, replace_op(0, pattern_bytes(30_000, salt=2)))),
    InvalidArgumentError, "needs 8 pages",
    _NEXT_BATCH,
)
REFUSALS["atomic-batch-with-a-range-past-the-end"] = Refusal(
    _two_shards,
    _batch((0, replace_op(0, b"Z" * 100)), (1, replace_op(39_990, b"Y" * 100))),
    ByteRangeError, "outside object",
    _NEXT_BATCH,
    xfail="ROADMAP item 9: abort rolls forward",
)
# Block-based has no shadowing, hence no rollback image: recovery is
# refused before any shard's fault site, pool or objects change.
REFUSALS["atomic-blockbased-recovery"] = Refusal(
    _blockbased_shards,
    lambda s: recover_sharded_store(s.target),
    InvalidArgumentError, "'blockbased' has no atomic recovery",
    _batch((0, replace_op(0, b"Z" * 10)), (1, replace_op(5, b"Y" * 10))),
)


def _fsck_clean(target) -> bool:
    if isinstance(target, ShardedStore):
        return all(report.clean for report in fsck_sharded_store(target))
    manager = target.manager
    return check([(manager, manager.oids())]).clean


def _rows():
    for name, row in REFUSALS.items():
        xfail = pytest.mark.xfail(strict=True, raises=AssertionError,
                                  reason=row.xfail)
        yield pytest.param(row, id=name, marks=[xfail] if row.xfail else [])


@pytest.mark.parametrize("row", _rows())
def test_a_refused_call_changes_nothing(row: Refusal) -> None:
    subject, twin = row.build(), row.build()
    before = fingerprint(subject.target)
    with pytest.raises(row.error, match=row.match):
        row.refused(subject)
    assert fingerprint(subject.target) == before
    if subject.tree is not None:
        subject.tree.check_invariants()
    if isinstance(subject.target, StorageEnvironment):
        subject.target.areas.check_invariants()
    else:
        # Twin and subject read alike, so the charges stay paired.
        for built in (subject, twin):
            if built.model is not None:
                assert built.model.differences(built.target) == []
            assert _fsck_clean(built.target)
    assert row.then(subject) == row.then(twin)
    assert fingerprint(subject.target) == fingerprint(twin.target)


def _pool_counters(store: ShardedStore) -> list:
    """Each shard's buffer-pool counters, copied."""
    return [dataclasses.replace(s.env.pool.stats) for s in store.shards]


def _busy(scheme: str, shards: int) -> ShardedStore:
    """A store after creates, updates and reads on every shard."""
    store = ShardedStore(scheme, SMALL, shards=shards)
    oids = [store.create(pattern_bytes(900, salt=i)) for i in range(2 * shards)]
    for i, oid in enumerate(oids):
        store.insert(oid, 17 * i, pattern_bytes(150, salt=i))
        store.delete(oid, 3, 40)
        store.read(oid, 0, 200)
    return store


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_the_fingerprint_is_stable_free_and_twin_equal(scheme, shards):
    """Taken twice in a row it is equal and charges nothing; a twin built
    alike has the same one."""
    store = _busy(scheme, shards)
    charged = store.stats, _pool_counters(store)    # taken afresh per read
    first = fingerprint(store)
    assert fingerprint(store) == first and len(first) == shards
    assert (store.stats, _pool_counters(store)) == charged
    assert fingerprint(_busy(scheme, shards)) == first
