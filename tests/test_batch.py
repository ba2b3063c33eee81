"""Dual-path equivalence and crash safety of the batch engine (repro.exec).

The acceptance bar for batched execution is *bit-identity*: submitting a
sequence of byte-range operations through ``submit_ops`` must leave
every observable the paper's experiments report — simulated I/O
counters, per-op costs, buffer-pool counters, read payloads, and the
raw disk image — exactly equal to running the same operations one by
one.  Group commit may defer only uncharged root pokes and descriptor
flushes; nothing charged may move.

The crash smoke at the end checks the other half of the group-commit
contract: a crash at *any* physical write inside a batch must leave a
disk image that rebuilds (from the image alone) to a committed state —
the batch start or the batch end — never to a half-applied middle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import (
    ByteRangeError,
    CrashError,
    InvalidArgumentError,
    OutOfSpaceError,
)
from repro.core.payload import SizedPayload
from repro.exec.plan import (
    BatchOp,
    append_op,
    delete_op,
    insert_op,
    read_op,
    replace_op,
)
from repro.experiments.common import make_store
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.recovery.crash import rebuild_content
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WindowStats, WorkloadRunner, as_batch_op
from tests.conftest import fingerprint

SCHEMES = ("esm", "starburst", "eos")


# ----------------------------------------------------------------------
# Equivalence harness
# ----------------------------------------------------------------------
def _run_perop(
    store: LargeObjectStore, oid: int, ops: list[BatchOp]
) -> tuple[list[object], list[float]]:
    """Dispatch ops one by one, measuring each op's cost like the
    per-op workload runner does (ledger delta around the call)."""
    env = store.env
    results: list[object] = []
    costs: list[float] = []
    for op in ops:
        before = env.snapshot()
        if op.kind == "read":
            results.append(store.read(oid, op.offset, op.nbytes))
        else:
            if op.kind == "append":
                store.append(oid, op.data)
            elif op.kind == "insert":
                store.insert(oid, op.offset, op.data)
            elif op.kind == "delete":
                store.delete(oid, op.offset, op.nbytes)
            else:
                assert op.kind == "replace"
                store.replace(oid, op.offset, op.data)
            results.append(None)
        costs.append(env.elapsed_ms_since(before))
    return results, costs


def _assert_dual_path_identical(scheme: str, ops: list[BatchOp]) -> None:
    """Run ``ops`` per-op and batched on twin stores; everything equal."""
    perop = make_store(scheme, leaf_pages=2, threshold_pages=2)
    batched = make_store(scheme, leaf_pages=2, threshold_pages=2)
    oid_a = perop.create()
    oid_b = batched.create()

    results_a, costs_a = _run_perop(perop, oid_a, ops)
    batch = batched.submit_ops(oid_b, ops)

    assert list(batch.results) == results_a
    assert list(batch.op_costs_ms) == costs_a
    assert fingerprint(batched) == fingerprint(perop)
    assert batched.size(oid_b) == perop.size(oid_a)


def _build_ops(n: int = 24) -> list[BatchOp]:
    """Mixed-size appends: hits in-place fills and overflow rewrites."""
    return [
        append_op(SizedPayload((3911 * (i + 1)) % 17000 + 64))
        for i in range(n)
    ]


def _scan_ops(size: int, chunk: int = 7777) -> list[BatchOp]:
    return [
        read_op(pos, min(chunk, size - pos)) for pos in range(0, size, chunk)
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestDualPathEquivalence:
    def test_build(self, scheme: str) -> None:
        _assert_dual_path_identical(scheme, _build_ops())

    def test_scan(self, scheme: str) -> None:
        build = _build_ops()
        size = sum(len(op.data) for op in build)
        _assert_dual_path_identical(scheme, build + _scan_ops(size))

    def test_random_insert_mix(self, scheme: str) -> None:
        ops = _build_ops(16)
        size = sum(len(op.data) for op in ops)
        for i in range(20):
            offset = (7919 * i) % (size // 2)
            data = SizedPayload((i * 997) % 6000 + 32)
            ops.append(insert_op(offset, data))
            size += len(data)
            if i % 3 == 0:
                ops.append(read_op(offset, min(4096, size - offset)))
        _assert_dual_path_identical(scheme, ops)

    def test_delete_and_replace(self, scheme: str) -> None:
        ops = _build_ops(16)
        size = sum(len(op.data) for op in ops)
        for i in range(12):
            nbytes = (i * 773) % 5000 + 16
            offset = (6151 * i) % (size - nbytes)
            ops.append(delete_op(offset, nbytes))
            size -= nbytes
            if i % 2 == 0:
                span = min(2048, size // 4)
                ops.append(replace_op((i * 409) % (size - span),
                                      SizedPayload(span)))
        _assert_dual_path_identical(scheme, ops)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_workload_runner_windows_identical(scheme: str) -> None:
    """`run`'s windows equal windows folded from the same ops run one by
    one, samples included."""

    def point() -> tuple[LargeObjectStore, WorkloadRunner]:
        store = make_store(scheme, leaf_pages=2, threshold_pages=2)
        oid = store.create()
        for _ in range(12):
            store.append(oid, SizedPayload(9000))
        generator = WorkloadGenerator(
            object_size=store.size(oid), mean_op_size=2000, seed=11
        )
        return store, WorkloadRunner(store.manager, oid, generator)

    store_a, runner_a = point()
    store_b, runner_b = point()
    ops = [as_batch_op(op) for op in runner_a.generator.operations(60)]
    expected = []
    for lo in range(0, len(ops), 20):
        window = ops[lo : lo + 20]
        _results, costs = _run_perop(store_a, runner_a.oid, window)
        stats = WindowStats(ops_done=lo + len(window))
        for op, cost in zip(window, costs):
            stats.record(op.kind, cost, keep_op_costs=True)
        stats.utilization = store_a.utilization(runner_a.oid)
        expected.append(stats)
    assert runner_b.run(60, window=20, keep_op_costs=True) == expected
    assert fingerprint(store_b) == fingerprint(store_a)


# ----------------------------------------------------------------------
# Traced batches: exact span-cost decomposition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_span_costs_decompose_exactly(
    scheme: str, tmp_path
) -> None:
    """Disk-level span self-costs sum to the batched total with ``==``.

    A traced batch nests ``op.batch`` → ``exec.batch`` → per-op spans;
    the non-overlapping self-cost decomposition must still account for
    every seek and page transfer of the batch bitwise (the paper's cost
    constants are exact binary floats, so no tolerance is needed).
    """
    from repro.obs import Tracer, dump_trace, installed, load_trace
    from repro.obs.summarize import (
        fold_io_totals,
        span_kind_table,
        total_cost_ms,
    )

    tracer = Tracer()
    with installed(tracer):
        store = make_store(scheme, leaf_pages=2, threshold_pages=2)
    oid = store.create()
    ops = _build_ops(12)
    size = sum(len(op.data) for op in ops)
    ops += _scan_ops(size)
    store.submit_ops(oid, ops)
    path = tmp_path / "trace.jsonl"
    dump_trace(tracer, path)
    document = load_trace(path)
    table = span_kind_table(document)
    assert sum(row["self_cost_ms"] for row in table.values()) == (
        total_cost_ms(document)
    )
    totals = fold_io_totals(document)
    stats = store.stats
    assert totals["read_calls"] == stats.read_calls
    assert totals["write_calls"] == stats.write_calls
    assert totals["pages_read"] == stats.pages_read
    assert totals["pages_written"] == stats.pages_written
    assert f"exec.batch:{scheme}" in table
    assert f"op.batch:{scheme}" in table


# ----------------------------------------------------------------------
# Group-commit crash smoke
# ----------------------------------------------------------------------
def _pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + salt * 7 + 5) % 251 for i in range(n))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_crash_recovers_committed_state_from_image(scheme: str) -> None:
    """Crashing at every write inside a batch recovers start or end state.

    The batch engine journals space frees while a fault injector is
    armed and defers root/descriptor flushes to the batch boundary, so
    the image must always rebuild to the batch-start content (commit
    never happened) or the batch-end content (commit completed) — any
    other content means a torn group commit.
    """
    config = small_page_config()
    page = config.page_size

    def fresh() -> tuple[LargeObjectStore, int, list[BatchOp]]:
        store = LargeObjectStore(
            scheme, config, leaf_pages=2, threshold_pages=2
        )
        oid = store.create(_pattern(6 * page + 37))
        batch = [
            append_op(_pattern(2 * page + 5, salt=1)),
            insert_op(3 * page + 17, _pattern(page + 9, salt=2)),
            delete_op(page + 3, 2 * page),
        ]
        return store, oid, batch

    # Dry run: learn the write count and the two committed contents.
    store, oid, batch = fresh()
    pre = bytes(store.read(oid, 0, store.size(oid)))
    writes_before = store.stats.write_calls
    store.submit_ops(oid, batch)
    n_writes = store.stats.write_calls - writes_before
    post = bytes(store.read(oid, 0, store.size(oid)))
    assert 1 <= n_writes <= 500

    seen: set[str] = set()
    for k in range(1, n_writes + 1):
        store, oid, batch = fresh()
        with FaultInjector(store.env, FaultPlan(crash_writes=at(k))):
            with pytest.raises(CrashError):
                store.submit_ops(oid, batch)
        assert not store.env.disk.verify_checksums()
        recovered = bytes(rebuild_content(store, oid))
        assert recovered in (pre, post), (
            f"{scheme}: crash at write {k}/{n_writes} rebuilt "
            f"{len(recovered)} bytes matching neither batch-start nor "
            "batch-end content"
        )
        seen.add("post" if recovered == post else "pre")
    assert "pre" in seen  # at least the earliest crash predates commit


@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_inside_batch_commit_leaves_engine_closed(scheme: str) -> None:
    """A crash in the batch-boundary commit must not wedge the engine.

    The trailing deferred frees can evict a dirty buddy-directory page —
    a charged write, hence a crash point *after* the group commit.  The
    dry run is taken with an empty plan armed so frees are deferred as
    in the crashing runs and those commit-time writes are counted (on
    Starburst the last dozen or so of several hundred).  After every
    crash the engine must be idle with nothing pending, the ledger must
    still see charges, and the next batch must open.
    """
    config = small_page_config()
    page = config.page_size
    size = 200 * page + 5
    content = _pattern(size)
    rng = random.Random(7)
    batch: list[BatchOp] = []
    for i in range(40):
        nbytes = rng.randint(1, 3) * page
        if i % 2 == 0:
            batch.append(delete_op(rng.randrange(size - nbytes), nbytes))
            size -= nbytes
        else:
            batch.append(
                insert_op(rng.randrange(size), _pattern(nbytes, salt=i))
            )
            size += nbytes

    def fresh() -> tuple[LargeObjectStore, int]:
        store = LargeObjectStore(
            scheme, config, leaf_pages=2, threshold_pages=2
        )
        return store, store.create(content)

    store, oid = fresh()
    with FaultInjector(store.env, FaultPlan()) as armed:
        store.submit_ops(oid, batch)
        n_writes = armed.write_calls
    post = bytes(store.read(oid, 0, store.size(oid)))
    assert 1 <= n_writes <= 2000

    seen: set[str] = set()
    for k in range(1, n_writes + 1):
        store, oid = fresh()
        with FaultInjector(store.env, FaultPlan(crash_writes=at(k))):
            with pytest.raises(CrashError):
                store.submit_ops(oid, batch)
        recovered = bytes(rebuild_content(store, oid))
        assert recovered in (content, post), (
            f"{scheme}: crash at write {k}/{n_writes} tore the batch"
        )
        seen.add("post" if recovered == post else "pre")

        where = f"{scheme}: after crash at write {k}/{n_writes}"
        engine = store.env.exec
        areas = store.env.areas
        assert engine.active is False, where
        assert areas.meta.free_sink is None, where
        assert areas.data.free_sink is None, where
        assert not engine._pending_roots, where
        assert not engine._pending_descriptors, where
        assert not engine._deferred_frees, where
        calls = store.stats.io_calls
        store.read(oid, 0, 4 * page)
        assert store.stats.io_calls > calls, f"{where}: ledger is stuck"
        result = store.submit_ops(
            oid, [read_op(0, page), append_op(_pattern(page, salt=k))]
        )
        assert len(result.op_costs_ms) == 2, where
    assert "pre" in seen
    if scheme == "starburst":
        assert "post" in seen  # the trailing frees were reached


# ----------------------------------------------------------------------
# Batch and hold-mode lifecycle
# ----------------------------------------------------------------------
def test_batches_and_hold_mode_refuse_nesting_and_always_close(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    store = LargeObjectStore("eos", small_page_config(), threshold_pages=2)
    oid = store.create(_pattern(300))
    engine = store.env.exec
    read = store.manager.read

    # A batch opened inside a batch, or hold mode entered there, is
    # refused; the outer batch unwinds and the engine is idle again.
    for nested in (
        lambda: store.submit_ops(oid, [read_op(0, 8)]),
        engine.hold,
    ):
        monkeypatch.setattr(
            store.manager, "read", lambda *args, nested=nested: nested()
        )
        with pytest.raises(InvalidArgumentError, match="nest|inside"):
            store.submit_ops(oid, [read_op(0, 8)])
        assert engine.active is False
        monkeypatch.setattr(store.manager, "read", read)

    # Hold mode does not nest, and taking the held commit always ends
    # it — after no batch, after a failed one, after one that committed.
    engine.hold()
    with pytest.raises(InvalidArgumentError, match="do not nest"):
        engine.hold()
    assert engine.take_held() is None
    engine.hold()
    with pytest.raises(ByteRangeError):
        store.submit_ops(oid, [read_op(1_000, 8)])
    assert engine.take_held() is None
    root = store.env.disk.peek_pages(oid, 1)
    engine.hold()
    store.submit_ops(oid, [append_op(_pattern(40, salt=1))])
    held = engine.take_held()
    assert held is not None and held.roots
    assert store.env.disk.peek_pages(oid, 1) == root  # not yet visible
    engine.apply_held(held)
    assert store.env.disk.peek_pages(oid, 1) != root
    assert bytes(store.read(oid, 0, 340)) == (
        _pattern(300) + _pattern(40, salt=1)
    )


# ----------------------------------------------------------------------
# A lone op is a batch of one
# ----------------------------------------------------------------------
def _mutations(page: int) -> dict[str, BatchOp]:
    """One op of each byte-range mutation kind, on a 6-page object."""
    return {
        "append": append_op(_pattern(2 * page + 5, salt=1)),
        "insert": insert_op(3 * page + 17, _pattern(page + 9, salt=2)),
        "delete": delete_op(page + 3, 2 * page),
        "replace": replace_op(17, _pattern(page, salt=3)),
    }


def _lone_store(scheme: str) -> tuple[LargeObjectStore, int]:
    store = LargeObjectStore(
        scheme, small_page_config(), leaf_pages=2, threshold_pages=2
    )
    return store, store.create(_pattern(6 * store.config.page_size + 37))


@pytest.mark.parametrize(
    ("scheme", "kind"),
    [
        (scheme, kind)
        for scheme in SCHEMES
        for kind in ("create", "trim", *_mutations(1))
        if not (scheme == "esm" and kind == "trim")  # ESM has no trim
    ],
)
def test_a_lone_op_commits_as_a_batch_of_one(scheme: str, kind: str) -> None:
    """Every lone mutation closes its own batch and leaves the object
    rebuildable from the image alone."""
    store, oid = _lone_store(scheme)
    if kind == "trim":
        store.append(oid, _pattern(5, salt=4))
        store.manager.trim(oid)
    elif kind != "create":
        _run_perop(store, oid, [_mutations(store.config.page_size)[kind]])
    assert store.env.exec.active is False
    assert bytes(rebuild_content(store, oid)) == bytes(
        store.read(oid, 0, store.size(oid))
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_lone_op_that_raises_closes_its_batch(
    scheme: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A typed error inside the bracket aborts the batch of one: the
    engine is idle, frees are immediate again, and the next op works."""
    store = LargeObjectStore(
        scheme, small_page_config(), leaf_pages=2, threshold_pages=2
    )
    oid = store.create()
    engine = store.env.exec
    areas = store.env.areas
    data = _pattern(3 * store.config.page_size, salt=1)
    sinks_seen = []

    def full(n_pages: int) -> int:
        sinks_seen.append(areas.data.free_sink is not None)
        raise OutOfSpaceError("data area full")

    with FaultInjector(store.env, FaultPlan()):
        monkeypatch.setattr(areas.data, "allocate", full)
        with pytest.raises(OutOfSpaceError):
            store.append(oid, data)
        assert sinks_seen == [True]  # the op ran inside an open batch
        assert engine.active is False
        assert areas.meta.free_sink is None
        assert areas.data.free_sink is None
        monkeypatch.undo()
        store.append(oid, data)
    assert bytes(store.read(oid, 0, store.size(oid))) == data
    assert bytes(rebuild_content(store, oid)) == data


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ops_inside_a_batch_join_it(
    scheme: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Submitted ops open no batch of their own: one commit per batch."""
    store, oid = _lone_store(scheme)
    engine = store.env.exec
    commit = engine.commit
    commits = []

    def counted() -> None:
        commits.append(engine.active)
        commit()

    monkeypatch.setattr(engine, "commit", counted)
    store.submit_ops(oid, list(_mutations(store.config.page_size).values()))
    assert commits == [True]
    store.append(oid, _pattern(9, salt=5))
    assert commits == [True, True]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", sorted(_mutations(1)))
def test_a_lone_op_under_an_armed_injector_equals_its_batch(
    scheme: str, kind: str
) -> None:
    """With frees deferred, a lone op and the same op submitted alone
    leave identical stores."""
    lone, oid_a = _lone_store(scheme)
    batched, oid_b = _lone_store(scheme)
    op = _mutations(lone.config.page_size)[kind]
    with FaultInjector(lone.env, FaultPlan()):
        _run_perop(lone, oid_a, [op])
    with FaultInjector(batched.env, FaultPlan()):
        batched.submit_ops(oid_b, [op])
    assert fingerprint(lone) == fingerprint(batched)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_lone_op_crashing_at_any_write_closes_its_batch(scheme: str) -> None:
    """A crash at any write of a lone insert — its index-page flush
    included — leaves the engine idle and the image at the op's start or
    end."""
    config = small_page_config()
    content = _pattern(200 * config.page_size + 5)  # a two-level tree
    op = insert_op(97 * config.page_size + 3, _pattern(config.page_size + 9))

    def fresh() -> tuple[LargeObjectStore, int]:
        store = LargeObjectStore(
            scheme, config, leaf_pages=2, threshold_pages=2
        )
        return store, store.create(content)

    store, oid = fresh()
    with FaultInjector(store.env, FaultPlan()) as armed:
        _run_perop(store, oid, [op])
        n_writes = armed.write_calls
    post = bytes(store.read(oid, 0, store.size(oid)))
    for k in range(1, n_writes + 1):
        store, oid = fresh()
        with FaultInjector(store.env, FaultPlan(crash_writes=at(k))):
            with pytest.raises(CrashError):
                _run_perop(store, oid, [op])
        where = f"{scheme}: crash at write {k}/{n_writes}"
        assert store.env.exec.active is False, where
        assert store.env.areas.data.free_sink is None, where
        assert bytes(rebuild_content(store, oid)) in (content, post), where
