"""Cross-shard atomic batches (repro.atomic + repro.recovery.atomic).

The subsystem's contract has four legs:

1. **Journal codec** — records round-trip exactly; torn prefixes, bit
   flips, and garbage all decode to ``None`` (never became durable).
2. **Equivalence** — an atomic store returns the same batch results and
   final object state as the plain router; only the journal's own
   charged writes differ, and ``atomic=False`` touches nothing at all.
3. **All-or-nothing** — crash any shard at any physical write point
   (journal writes included) and, after image-only recovery, the whole
   multi-object batch is present everywhere or absent everywhere, with
   journal-aware fsck clean.
4. **Accountability** — the ``atomic.*`` spans decompose a traced
   batch's cost exactly, and fsck reports unresolved journal pages as
   their own ``journal-residue`` class.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.atomic.journal import (
    APPLIED,
    CLEAN,
    DECISION,
    PREPARE,
    decode_record,
    encode_record,
    self_coordinator,
)
from repro.core.config import small_page_config
from repro.core.errors import ChecksumError, CrashError, InvalidArgumentError
from repro.core.fsck import check, check_atomic_sharded
from repro.core.payload import SizedPayload
from repro.exec.plan import BatchOp, MultiOp, append_op
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.obs.runtime import installed
from repro.obs.tracer import Tracer
from repro.recovery.atomic import fsck_sharded_store, recover_sharded_store
from repro.recovery.sweep import CrossShardBatch, sweep
from repro.shard.router import ShardedStore

SCHEMES = ("esm", "starburst", "eos")

_OPTIONS = {
    "esm": {"leaf_pages": 2},
    "starburst": {},
    "eos": {"threshold_pages": 2},
}


def _pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + salt * 97 + 5) % 251 for i in range(n))


def _store(scheme: str, shards: int = 2, **kw: object) -> ShardedStore:
    return ShardedStore(
        scheme, small_page_config(), shards=shards,
        **{**_OPTIONS[scheme], **kw},  # type: ignore[arg-type]
    )


def _batch(store: ShardedStore, oids: list[int]) -> list[MultiOp]:
    page = store.config.page_size
    mops = []
    for i, oid in enumerate(oids):
        kind = ("append", "insert", "replace", "delete")[i % 4]
        if kind == "delete":
            mops.append(MultiOp(oid, BatchOp("delete", 7, page // 2)))
        else:
            mops.append(MultiOp(oid, BatchOp(
                kind, (i * 13) % page, 0, _pattern(page - 11, salt=i)
            )))
    return mops


def _contents(store: ShardedStore, oids: list[int]) -> list[bytes]:
    return [bytes(store.read(o, 0, store.size(o))) for o in oids]


_REF_HEADER = struct.Struct("<4sBQIIQI")
_REF_OP = struct.Struct("<QBqqBQ")
_REF_CODES = {"read": 0, "append": 1, "insert": 2, "delete": 3, "replace": 4}


def _reference_encode_record(
    kind, batch_id, coordinator, shard, participants=(), mops=()
):
    """The record encoder as first written: the header packed twice and
    the CRC taken over the concatenated frame (the reference the
    journal's one-pass framing must reproduce byte for byte)."""
    parts = [struct.pack("<I", len(participants))]
    parts.extend(struct.pack("<I", p) for p in participants)
    parts.append(struct.pack("<I", len(mops)))
    for oid, op in mops:
        if isinstance(op.data, SizedPayload):
            code, length, raw = 2, len(op.data), b""
        else:
            raw = bytes(op.data)
            code, length = (1, len(raw)) if raw else (0, 0)
        parts.append(_REF_OP.pack(
            oid, _REF_CODES[op.kind], op.offset, op.nbytes, code, length
        ))
        parts.append(raw)
    payload = b"".join(parts)
    header = _REF_HEADER.pack(
        b"RJL1", kind, batch_id, coordinator, shard, len(payload), 0
    )
    crc = zlib.crc32(header + payload)
    header = _REF_HEADER.pack(
        b"RJL1", kind, batch_id, coordinator, shard, len(payload), crc
    )
    return header + payload


# ----------------------------------------------------------------------
# 1. Journal codec
# ----------------------------------------------------------------------
class TestJournalCodec:
    def _record(self) -> bytes:
        mops = (
            MultiOp(3, BatchOp("append", 0, 0, b"abc")),
            MultiOp(1, BatchOp("read", 5, 9)),
            MultiOp(7, BatchOp("replace", 2, 0, _pattern(300))),
        )
        return encode_record(PREPARE, 42, 0, 1, (0, 1, 3), mops)

    def test_round_trip_preserves_everything(self):
        record = decode_record(self._record())
        assert record is not None
        assert record.kind == PREPARE
        assert record.batch_id == 42
        assert record.coordinator == 0
        assert record.shard == 1
        assert record.participants == (0, 1, 3)
        assert [m.oid for m in record.mops] == [3, 1, 7]
        assert record.mops[0].op.data == b"abc"
        assert bytes(record.mops[2].op.data) == _pattern(300)

    def test_markers_round_trip_without_payload(self):
        for kind in (DECISION, APPLIED, CLEAN):
            record = decode_record(encode_record(kind, 9, 2, 2))
            assert record is not None and record.kind == kind
            assert record.mops == ()

    def test_torn_prefix_never_became_durable(self):
        wire = self._record()
        for cut in (0, 4, len(wire) // 2, len(wire) - 1):
            assert decode_record(wire[:cut]) is None

    def test_single_bit_flip_fails_the_crc(self):
        wire = bytearray(self._record())
        wire[len(wire) // 2] ^= 0x10
        assert decode_record(bytes(wire)) is None

    def test_garbage_and_blank_pages_decode_to_none(self):
        assert decode_record(b"") is None
        assert decode_record(b"\x00" * 512) is None
        assert decode_record(b"NOPE" + b"\x01" * 60) is None

    def test_coordinator_is_lowest_participant(self):
        assert self_coordinator((4, 2, 7)) == 2
        with pytest.raises(InvalidArgumentError):
            self_coordinator(())

    def test_records_match_the_reference_encoder_byte_for_byte(self):
        """Markers, PREPAREs with recorded, length-only and empty
        payloads, and records of many pages — on the wire and as the
        journal lays them out on disk (zero-padded to whole pages)."""
        store = _store("eos", shards=1, atomic=True, journal_pages=64)
        journal = store.coordinator.journals[0]
        disk = store.shards[0].env.disk
        page = store.config.page_size
        rng = random.Random(11)
        most = 0
        for trial in range(12):
            mops = tuple(
                MultiOp(rng.randrange(1 << 40), BatchOp(
                    rng.choice(("append", "insert", "replace", "delete",
                                "read")),
                    rng.randrange(1 << 20), rng.randrange(1 << 12),
                    rng.choice((
                        b"", SizedPayload(rng.randrange(1, 1 << 16)),
                        _pattern(rng.randrange(1, 12 * page), salt=trial),
                    )),
                ))
                for _ in range(rng.randrange(4))
            )
            participants = tuple(sorted(rng.sample(range(8), 3)))
            args = (trial, participants[0], participants[1], participants)
            record = _reference_encode_record(PREPARE, *args, mops)
            assert encode_record(PREPARE, *args, mops) == record
            journal.write_prepare(journal.encode_prepare(*args, mops))
            n_pages = -(-len(record) // page)
            assert disk.peek_pages(journal.base_page, n_pages) == (
                record.ljust(n_pages * page, b"\x00")
            )
            most = max(most, n_pages)
        assert most > 10
        for kind, write, page_id in (
            (APPLIED, lambda: journal.write_applied(5, 3),
             journal.applied_page),
            (CLEAN, lambda: journal.write_clean(5, 3), journal.base_page),
        ):
            write()
            record = _reference_encode_record(kind, 5, 3, 3)
            assert encode_record(kind, 5, 3, 3) == record
            assert disk.peek_pages(page_id, 1) == record.ljust(page, b"\x00")
        journal.write_decision(6, (2, 4, 7))
        record = _reference_encode_record(DECISION, 6, 2, 2, (2, 4, 7))
        assert disk.peek_pages(journal.decision_page, 1) == (
            record.ljust(page, b"\x00")
        )

    def test_oversized_record_is_rejected_with_guidance(self):
        store = _store("eos", shards=1, atomic=True, journal_pages=4)
        journal = store.coordinator.journals[0]
        huge = [MultiOp(0, BatchOp("append", 0, 0, _pattern(4096)))]
        with pytest.raises(InvalidArgumentError, match="journal_pages"):
            journal.encode_prepare(1, 0, 0, (0,), huge)

    def test_journal_region_needs_minimum_pages(self):
        with pytest.raises(InvalidArgumentError):
            _store("eos", atomic=True, journal_pages=2)


# ----------------------------------------------------------------------
# 2. Equivalence with the plain router
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_atomic_batches_match_plain_results(scheme: str) -> None:
    plain = _store(scheme, shards=3)
    atomic = _store(scheme, shards=3, atomic=True)
    page = plain.config.page_size
    oids_p = [plain.create(_pattern(3 * page + 9, salt=i)) for i in range(6)]
    # oids differ (the journal reservation shifts meta page ids); the
    # i-th object of each store corresponds positionally.
    oids_a = [atomic.create(_pattern(3 * page + 9, salt=i)) for i in range(6)]
    for _ in range(3):
        out_p = plain.submit_many(_batch(plain, oids_p))
        out_a = atomic.submit_many(_batch(atomic, oids_a))
        assert list(out_p.op_costs_ms) == list(out_a.op_costs_ms)
        assert [
            None if r is None else bytes(r) for r in out_p.results
        ] == [None if r is None else bytes(r) for r in out_a.results]
    assert _contents(plain, oids_p) == _contents(atomic, oids_a)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_journal_off_store_is_bit_identical_to_plain(scheme: str) -> None:
    """``atomic=False`` (the default) perturbs nothing: counters, pool,
    and the raw disk image all match a router built before the journal
    existed."""
    a = _store(scheme, shards=2)
    b = _store(scheme, shards=2, atomic=False)
    page = a.config.page_size
    for store in (a, b):
        oids = [store.create(_pattern(2 * page, salt=i)) for i in range(4)]
        store.submit_many(_batch(store, oids))
    for sa, sb in zip(a.shards, b.shards):
        assert sa.stats.write_calls == sb.stats.write_calls
        assert sa.stats.read_calls == sb.stats.read_calls
        assert sa.env.disk.image() == sb.env.disk.image()


def test_atomic_store_charges_journal_writes() -> None:
    """The journal is not free: each participating shard pays PREPARE
    and APPLIED, the coordinator additionally the DECISION page."""
    page = small_page_config().page_size
    deltas = {}
    for label, atomic in (("plain", False), ("atomic", True)):
        store = _store("eos", shards=2, atomic=atomic)
        oids = [store.create(_pattern(page, salt=i)) for i in range(2)]
        before = store.snapshot()
        store.submit_many([
            MultiOp(oid, append_op(_pattern(64, salt=9))) for oid in oids
        ])
        deltas[label] = store.stats.delta(before)
    extra = deltas["atomic"].write_calls - deltas["plain"].write_calls
    # 2 shards x (PREPARE + APPLIED) + 1 DECISION = 5 journal writes.
    assert extra == 5


def test_read_only_cross_shard_batch_stays_atomic() -> None:
    store = _store("eos", shards=2, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(page + 3, salt=i)) for i in range(4)]
    out = store.submit_many([
        MultiOp(oid, BatchOp("read", 1, page // 2)) for oid in oids
    ])
    assert [bytes(r) for r in out.results if r is not None] == [
        _pattern(page + 3, salt=i)[1 : 1 + page // 2] for i in range(4)
    ]


# ----------------------------------------------------------------------
# 3. All-or-nothing under crashes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_exhaustive_cross_shard_sweep_is_clean(scheme: str) -> None:
    """Every physical write point of every shard, crash and torn."""
    for target in range(2):
        report = sweep(CrossShardBatch(scheme, 2, target))
        assert report.clean, "\n".join(
            f.detail for f in report.failures
        )
        assert report.outcomes, "sweep verified nothing"
        table = report.classification_table()
        assert "batch-absent" in table
        # Recovery telemetry columns: every classified crash point
        # carries the reconciliation scan size, and any point whose
        # recovery string says "replayed" re-executed journaled ops.
        header, *rows = table.strip().split("\n")
        assert header.split("\t")[-4:] == [
            "scanned", "reclaimed", "runs", "replayed"
        ]
        for row in rows:
            fields = row.split("\t")
            if fields[3] == "transient":
                continue
            assert int(fields[6]) > 0, "crash point scanned no blocks"
            replayed = int(fields[9])
            assert (replayed > 0) == ("replayed" in fields[5])


def test_recovery_on_healthy_store_changes_nothing() -> None:
    store = _store("eos", shards=3, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(page * 2, salt=i)) for i in range(6)]
    store.submit_many(_batch(store, oids))
    before = _contents(store, oids)
    report = recover_sharded_store(store)
    assert all(
        s.action in ("none", "already-applied") for s in report.shards
    )
    assert _contents(store, oids) == before
    assert all(r.clean for r in fsck_sharded_store(store))


def test_crash_before_decision_rolls_the_batch_back() -> None:
    """Crashing a participant's PREPARE write (its first journal write)
    leaves the batch undecided: recovery must roll every shard back."""
    store = _store("eos", shards=2, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(2 * page + 9, salt=i)) for i in range(4)]
    pre = _contents(store, oids)
    with FaultInjector(store.shards[1].env, FaultPlan(crash_writes=at(1))):
        with pytest.raises(CrashError):
            store.submit_many(_batch(store, oids))
    report = recover_sharded_store(store)
    assert "rolled-back" in {s.action for s in report.shards} or all(
        s.action == "none" for s in report.shards
    )
    assert _contents(store, oids) == pre
    assert all(r.clean for r in fsck_sharded_store(store))
    # The recovered store is fully live: the same batch now commits.
    store.submit_many(_batch(store, oids))
    assert all(r.clean for r in fsck_sharded_store(store))


def test_recovery_requires_an_atomic_store() -> None:
    store = _store("eos", shards=2)
    with pytest.raises(InvalidArgumentError):
        recover_sharded_store(store)


# ----------------------------------------------------------------------
# 3b. Seeded randomized schedules (crash / torn / bit-flip)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5, 6))
def test_randomized_fault_schedules_preserve_atomicity(seed: int) -> None:
    rng = random.Random(seed)
    scheme = rng.choice(SCHEMES)
    shards = rng.choice((2, 3))
    store = _store(scheme, shards=shards, atomic=True)
    page = store.config.page_size
    oids = [
        store.create(_pattern(2 * page + 7, salt=i))
        for i in range(2 * shards)
    ]
    pre = _contents(store, oids)
    mops = _batch(store, oids)
    kind = rng.choice(("crash", "torn", "corruption"))
    target = rng.randrange(shards)
    point = rng.randrange(1, 12)
    if kind == "crash":
        plan = FaultPlan(crash_writes=at(point))
    elif kind == "torn":
        plan = FaultPlan(torn_writes=at(point))
    else:
        plan = FaultPlan(corruption=at(point), seed=seed)
    crashed = False
    detected = False
    with FaultInjector(store.shards[target].env, plan):
        try:
            store.submit_many(mops)
        except CrashError:
            crashed = True
        except ChecksumError:
            detected = True
    if kind == "corruption":
        # Silent bit flips must never surface as wrong data: either a
        # read already raised, checksum verification still flags the
        # page, or it was overwritten before anything consumed it — in
        # which case every object reads back intact.
        corrupt = [
            p
            for s in store.shards
            for p in s.env.disk.verify_checksums()
        ]
        if not detected and not corrupt:
            post_store = _store(scheme, shards=shards, atomic=True)
            post_oids = [
                post_store.create(_pattern(2 * page + 7, salt=i))
                for i in range(2 * shards)
            ]
            post_store.submit_many(_batch(post_store, post_oids))
            assert _contents(store, oids) == _contents(
                post_store, post_oids
            )
        return
    if crashed:
        recover_sharded_store(store)
    live = _contents(store, oids)
    post_store = _store(scheme, shards=shards, atomic=True)
    post_oids = [
        post_store.create(_pattern(2 * page + 7, salt=i))
        for i in range(2 * shards)
    ]
    post_store.submit_many(_batch(post_store, post_oids))
    post = _contents(post_store, post_oids)
    assert live == pre or live == post
    assert all(r.clean for r in fsck_sharded_store(store))


# ----------------------------------------------------------------------
# 3c. Per-shard fault targeting (satellite: injector isolation)
# ----------------------------------------------------------------------
def test_per_shard_injector_leaves_siblings_unarmed() -> None:
    store = _store("eos", shards=2, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(2 * page + 9, salt=i)) for i in range(4)]
    only_shard0 = [
        MultiOp(o, append_op(_pattern(32))) for o in oids if o % 2 == 0
    ]
    only_shard1 = [
        MultiOp(o, append_op(_pattern(32))) for o in oids if o % 2 == 1
    ]
    with FaultInjector(store.shards[1].env, FaultPlan(crash_writes=at(1))):
        # Shard 0 writes freely — the armed plan counts only shard 1's.
        store.submit_many(only_shard0)
        with pytest.raises(CrashError):
            store.submit_many(only_shard1)
    recover_sharded_store(store)
    assert all(r.clean for r in fsck_sharded_store(store))


# ----------------------------------------------------------------------
# 4a. Traced cost decomposition
# ----------------------------------------------------------------------
def test_atomic_spans_decompose_batch_cost_exactly() -> None:
    tracer = Tracer()
    with installed(tracer):
        store = _store("eos", shards=2, atomic=True)
        page = store.config.page_size
        oids = [store.create(_pattern(2 * page + 9, salt=i)) for i in range(4)]
        before = store.snapshot()
        store.submit_many(_batch(store, oids))
        delta = store.stats.delta(before)
    # The atomic.* spans sit directly under the router's shard.batch
    # span and between them bracket every charged write of the batch.
    spans = [
        r for r in tracer.records
        if r["t"] == "span" and str(r["kind"]).startswith("atomic.")
    ]
    assert {str(s["kind"]) for s in spans} == {
        "atomic.prepare", "atomic.commit"
    }
    calls = sum(
        int(s["read_calls"]) + int(s["write_calls"]) for s in spans
    )
    pages = sum(
        int(s["pages_read"]) + int(s["pages_written"]) for s in spans
    )
    assert calls == delta.io_calls
    assert pages == delta.pages_transferred


def test_recovery_emits_atomic_recover_spans() -> None:
    # The env binds its tracer at construction, so the whole scenario
    # runs under the ambient tracer.
    tracer = Tracer()
    with installed(tracer):
        store = _store("eos", shards=2, atomic=True)
        page = store.config.page_size
        oids = [
            store.create(_pattern(2 * page + 9, salt=i)) for i in range(4)
        ]
        with FaultInjector(store.shards[0].env, FaultPlan(crash_writes=at(2))):
            with pytest.raises(CrashError):
                store.submit_many(_batch(store, oids))
        recover_sharded_store(store)
    kinds = [
        str(r["kind"]) for r in tracer.records if r["t"] == "span"
    ]
    assert kinds.count("atomic.recover") == 2


# ----------------------------------------------------------------------
# 4b. fsck: journal-residue classification
# ----------------------------------------------------------------------
def test_fsck_reports_unresolved_journal_as_residue() -> None:
    store = _store("eos", shards=2, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(2 * page + 9, salt=i)) for i in range(4)]
    # Crash shard 1 mid-execution: its PREPARE is durable, unresolved.
    with FaultInjector(store.shards[1].env, FaultPlan(crash_writes=at(3))):
        with pytest.raises(CrashError):
            store.submit_many(_batch(store, oids))
    store.shards[1].env.disk.clear_fault_site()
    store.shards[1].env.pool.reset()
    reports = fsck_sharded_store(store)
    dirty = reports[1]
    assert not dirty.clean
    assert dirty.journal_residue
    assert "journal-residue" in dirty.summary()
    # A resolved journal is not residue — and not a leak either.
    recover_sharded_store(store)
    reports = fsck_sharded_store(store)
    assert all(r.clean for r in reports)
    assert all(not r.journal_residue for r in reports)


def test_fsck_without_journal_flags_region_as_leak() -> None:
    """The journal pages are allocated meta: only a journal-aware check
    may excuse them."""
    store = _store("eos", shards=1, atomic=True)
    oid = store.create(_pattern(64))
    manager = store.shards[0].manager
    aware = check(
        [(manager, [store.local_oid(oid)])],
        journals=[store.coordinator.journals[0]],
    )
    blind = check([(manager, [store.local_oid(oid)])])
    assert aware.clean
    assert not blind.clean
    assert set(store.coordinator.journals[0].pages()) <= set(
        blind.leaked_meta_pages
    )


def test_check_atomic_sharded_healthy_stores_are_clean() -> None:
    for scheme in SCHEMES:
        reports = check_atomic_sharded(scheme, shards=2, n_batches=2)
        assert len(reports) == 2
        assert all(r.clean for r in reports), scheme


# ----------------------------------------------------------------------
# 5. Journal state machine details
# ----------------------------------------------------------------------
def test_stale_markers_from_older_batches_are_ignored() -> None:
    store = _store("eos", shards=1, atomic=True)
    journal = store.coordinator.journals[0]
    oid = store.create(_pattern(64))
    store.submit_many([MultiOp(oid, append_op(_pattern(16)))])
    state = journal.read_state()
    assert state.resolved
    assert state.applied is not None  # this batch's own marker
    # A new PREPARE supersedes the old APPLIED marker: different batch
    # id, so the marker no longer counts and the batch reads in-flight.
    journal.write_prepare(journal.encode_prepare(999, 0, 0, (0,), (
        MultiOp(0, BatchOp("append", 0, 0, b"x")),
    )))
    state = journal.read_state()
    assert state.prepare is not None and state.prepare.batch_id == 999
    assert state.applied is None
    assert not state.resolved
    assert journal.residue_pages()
    journal.write_clean(999, 0)
    assert journal.read_state().resolved
    assert journal.residue_pages() == []


def test_journal_region_geometry_is_deterministic() -> None:
    a = _store("eos", shards=2, atomic=True)
    b = _store("eos", shards=2, atomic=True)
    for ja, jb in zip(a.coordinator.journals, b.coordinator.journals):
        assert ja.base_page == jb.base_page
        assert ja.pages() == jb.pages()
        assert ja.applied_page in ja.pages()
        assert ja.decision_page in ja.pages()


# ----------------------------------------------------------------------
# 6. Journal records are built when read
# ----------------------------------------------------------------------
def _count_journal_builds(store: ShardedStore) -> dict[str, int]:
    """Count the journal writes the shards' pools make from now on, and
    the builds of the pending pages they write: with the checks on, the
    disk builds each page it stores once at the write too."""
    counts = {"writes": 0, "builds": 0}

    def counted(build):
        def counting():
            counts["builds"] += 1
            return build()
        return counting

    for shard, journal in zip(store.shards, store.coordinator.journals):
        pool, region = shard.env.pool, journal.pages()

        def recording(start, n_pages, data, record=True,
                      write_run=pool.write_run, region=region):
            if start in region:
                assert isinstance(data, list)
                counts["writes"] += 1
                data = [counted(build) for build in data]
            write_run(start, n_pages, data, record)

        pool.write_run = recording
    return counts


def test_atomic_batches_build_no_journal_record() -> None:
    """A phantom 4-shard store's batches hand the disk nine pending
    journal pages each and build none; recovery's read builds them."""
    store = _store("esm", shards=4, atomic=True, record_data=False)
    page = store.config.page_size
    oids = [store.create(SizedPayload(4 * page)) for _ in range(4)]
    assert sorted(store.shard_of(oid) for oid in oids) == [0, 1, 2, 3]
    counts = _count_journal_builds(store)
    rng = random.Random(5)
    for _ in range(50):
        store.submit_many([
            MultiOp(oid, BatchOp("replace", rng.randrange(3 * page), 0,
                                 SizedPayload(16)))
            for oid in oids
        ])
    # 4 PREPARE + 1 DECISION + 4 APPLIED single-page writes per batch.
    written = 50 * 9 if store.shards[0].env.disk.checks else 0
    assert counts == {"writes": 50 * 9, "builds": written}
    states = [j.read_state() for j in store.coordinator.journals]
    assert counts["builds"] > written
    assert all(s.resolved and s.prepare.batch_id == 50 for s in states)
    assert all(len(s.prepare.mops) == 1 for s in states)


@pytest.mark.parametrize("checked", [False, True],
                         ids=["unchecked", "checked"], indirect=True)
def test_torn_three_page_prepare_persists_a_pending_prefix(
    checked: bool,
) -> None:
    """Tearing a 3-page PREPARE after 2 pages stores those 2 unbuilt;
    built, they are the record's first 2 pages, which fail the CRC, so
    the batch never prepared there and recovery rolls it back."""
    store = _store("eos", shards=2, atomic=True)
    page = store.config.page_size
    oids = [store.create(_pattern(page + 9, salt=i)) for i in range(2)]
    assert [store.shard_of(oid) for oid in oids] == [0, 1]
    pre = _contents(store, oids)
    mops = [MultiOp(oid, append_op(_pattern(2 * page, salt=7 + oid)))
            for oid in oids]
    local = (MultiOp(oids[1] // 2, mops[1].op),)
    record = _reference_encode_record(PREPARE, 1, 0, 1, (0, 1), local)
    assert -(-len(record) // page) == 3
    counts = _count_journal_builds(store)
    plan = FaultPlan(torn_writes=at(1), torn_prefix_pages=2)
    with FaultInjector(store.shards[1].env, plan):
        with pytest.raises(CrashError, match="only 2 of 3 pages"):
            store.submit_many(mops)
    # Shard 0's PREPARE too; checked, its 3 pages and the 2 persisted here
    # are built as they are written.
    written = 5 if checked else 0
    assert counts == {"writes": 2, "builds": written}
    journal = store.coordinator.journals[1]
    disk = store.shards[1].env.disk
    assert disk.peek_pages(journal.base_page, 2) == record[: 2 * page]
    assert counts["builds"] == written + 2
    assert journal.read_state().prepare is None
    report = recover_sharded_store(store)
    assert report.shards[0].action == "rolled-back"
    assert _contents(store, oids) == pre
    assert all(r.clean for r in fsck_sharded_store(store))


def test_a_buffer_changed_after_submit_is_journaled_as_submitted() -> None:
    store = _store("eos", shards=1, atomic=True)
    oid = store.create(_pattern(64))
    buffer = bytearray(_pattern(40, salt=3))
    store.submit_many([MultiOp(oid, append_op(buffer))])
    buffer[:] = b"\xff" * 90
    prepare = store.coordinator.journals[0].read_state().prepare
    assert prepare is not None
    (mop,) = prepare.mops
    assert mop.op.data == _pattern(40, salt=3)
    assert _contents(store, [oid]) == [_pattern(64) + _pattern(40, salt=3)]
