"""The sharded store's contracts (repro.shard).

Three invariants carry the whole subsystem:

1. **shard=1 identity** — a one-shard :class:`ShardedStore` is
   bit-identical to a plain :class:`LargeObjectStore`: same oids, same
   counters, same pool stats, same per-op costs, same raw disk image.
2. **Merge determinism** — multi-shard results (router batches, the
   ``shards`` experiment's points and traces) are pure functions of the
   inputs.
3. **Fault containment** — a crash mid-batch on one shard recycles
   nothing committed on that shard (the image rebuilds to batch-start
   or batch-end content, never a torn middle) and leaves sibling shards
   exactly as the batch outcome implies (committed or untouched).
"""

from __future__ import annotations

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import CrashError, InvalidArgumentError
from repro.core.payload import SizedPayload
from repro.exec.plan import (
    append_op,
    delete_op,
    insert_op,
    multi_op,
    read_op,
    replace_op,
)
from repro.experiments.common import clear as clear_cache
from repro.experiments.common import resolve_scale
from repro.experiments.shard_scaling import (
    compute_shard_point,
    run_shard_point,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.obs.runtime import installed
from repro.obs.tracer import Tracer
from repro.recovery.crash import rebuild_content
from repro.shard import ShardedStore
from tests.conftest import fingerprint

SCHEMES = ("esm", "starburst", "eos")


def _mixed_script(store: "LargeObjectStore | ShardedStore") -> list[object]:
    """A deterministic mixed workload against any store-shaped object.

    Returns the observable outputs (sizes, read bytes, utilizations) so
    twin runs can be compared output-for-output.
    """
    observed: list[object] = []
    oids = [store.create(SizedPayload(9000 + 1000 * i)) for i in range(4)]
    for i, oid in enumerate(oids):
        store.append(oid, SizedPayload(4000 + 500 * i))
        store.insert(oid, 1200 * i, SizedPayload(800))
    store.delete(oids[1], 100, 2500)
    store.replace(oids[2], 500, SizedPayload(1500))
    store.destroy(oids[3])
    del oids[3]
    for oid in oids:
        observed.append(store.size(oid))
        observed.append(bytes(store.read(oid, 64, 1024)))
        observed.append(store.utilization(oid))
        observed.append(store.allocated_pages(oid))
    batch = store.submit_ops(
        oids[0], [append_op(SizedPayload(3000)), read_op(0, 2048)]
    )
    observed.append(list(batch.op_costs_ms))
    many = store.submit_many(
        [
            multi_op(oids[0], read_op(10, 700)),
            multi_op(oids[1], insert_op(40, SizedPayload(900))),
            multi_op(oids[2], delete_op(8, 300)),
            multi_op(oids[1], read_op(0, 500)),
            multi_op(oids[2], replace_op(16, SizedPayload(200))),
        ]
    )
    observed.append(list(many.op_costs_ms))
    observed.append([None if r is None else bytes(r) for r in many.results])
    return observed


class _UnshardedAdapter:
    """Gives LargeObjectStore the router's submit_many surface."""

    def __init__(self, store: LargeObjectStore) -> None:
        self.store = store

    def __getattr__(self, name: str):
        return getattr(self.store, name)

    def submit_many(self, mops):
        return self.store.submit_multi(list(mops))


# ----------------------------------------------------------------------
# 1. shard=1 identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_shard_store_is_bit_identical(scheme: str) -> None:
    plain = LargeObjectStore(scheme, leaf_pages=2, threshold_pages=2)
    sharded = ShardedStore(scheme, shards=1, leaf_pages=2, threshold_pages=2)
    observed_plain = _mixed_script(_UnshardedAdapter(plain))
    observed_sharded = _mixed_script(sharded)
    assert observed_sharded == observed_plain
    assert fingerprint(sharded.shards[0]) == fingerprint(plain)
    assert sharded.stats == plain.stats
    assert sharded.shards[0].env.pool.stats == plain.env.pool.stats
    assert sharded.elapsed_ms() == plain.elapsed_ms()


def test_identity_oid_mapping_at_one_shard() -> None:
    store = ShardedStore("eos", shards=1)
    oids = [store.create() for _ in range(5)]
    plain = LargeObjectStore("eos")
    assert oids == [plain.create() for _ in range(5)]
    assert [store.shard_of(o) for o in oids] == [0] * 5
    assert [store.local_oid(o) for o in oids] == oids


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_round_robin_placement_and_oid_encoding() -> None:
    store = ShardedStore("eos", shards=3)
    with pytest.raises(InvalidArgumentError):
        store.create("not bytes")  # refused: takes no shard's turn
    oids = [store.create() for _ in range(7)]
    assert [store.shard_of(o) for o in oids] == [0, 1, 2, 0, 1, 2, 0]
    # Encoded oids are unique and decode back to (shard, local).
    assert len(set(oids)) == 7
    for oid in oids:
        shard, local = store.shard_of(oid), store.local_oid(oid)
        assert oid == local * store.n_shards + shard


def test_shards_must_be_positive() -> None:
    with pytest.raises(InvalidArgumentError):
        ShardedStore("eos", shards=0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_multi_shard_routes_to_independent_shards(scheme: str) -> None:
    """Each shard sees exactly its own objects' work, nothing else."""
    sharded = ShardedStore(scheme, shards=2, leaf_pages=2, threshold_pages=2)
    solo = [
        LargeObjectStore(scheme, leaf_pages=2, threshold_pages=2)
        for _ in range(2)
    ]
    a, b = sharded.create(), sharded.create()
    ra = [solo[0].create(), solo[1].create()]
    sharded.append(a, SizedPayload(20000))
    sharded.append(b, SizedPayload(35000))
    sharded.insert(b, 700, SizedPayload(4000))
    sharded.delete(a, 50, 900)
    solo[0].append(ra[0], SizedPayload(20000))
    solo[0].delete(ra[0], 50, 900)
    solo[1].append(ra[1], SizedPayload(35000))
    solo[1].insert(ra[1], 700, SizedPayload(4000))
    for shard, ref in zip(sharded.shards, solo):
        assert fingerprint(shard) == fingerprint(ref)
    merged = sharded.stats
    assert merged.io_calls == sum(s.stats.io_calls for s in solo)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_submit_many_interleaves_back_to_submission_order(
    scheme: str,
) -> None:
    """submit_many == manual per-shard submit_multi, re-interleaved."""
    sharded = ShardedStore(scheme, shards=2, leaf_pages=2, threshold_pages=2)
    twin = ShardedStore(scheme, shards=2, leaf_pages=2, threshold_pages=2)
    oids = [sharded.create() for _ in range(4)]
    twin_oids = [twin.create() for _ in range(4)]
    assert oids == twin_oids
    for store, os_ in ((sharded, oids), (twin, twin_oids)):
        for oid in os_:
            store.append(oid, SizedPayload(12000))
    mops = [
        multi_op(oids[0], append_op(SizedPayload(2000))),
        multi_op(oids[1], insert_op(30, SizedPayload(700))),
        multi_op(oids[2], read_op(0, 600)),
        multi_op(oids[3], delete_op(10, 400)),
        multi_op(oids[1], read_op(5, 300)),
        multi_op(oids[0], replace_op(9, SizedPayload(250))),
    ]
    result = sharded.submit_many(mops)
    # Manual routing on the twin: split by shard, submit in shard order.
    groups: dict[int, list[tuple[int, object]]] = {}
    for index, mop in enumerate(mops):
        groups.setdefault(twin.shard_of(mop.oid), []).append((index, mop))
    results: list[object] = [None] * len(mops)
    costs: list[float] = [0.0] * len(mops)
    for shard in sorted(groups):
        local = [
            multi_op(twin.local_oid(m.oid), m.op) for _, m in groups[shard]
        ]
        outcome = twin.shards[shard].submit_multi(local)
        for (index, _), r, c in zip(
            groups[shard], outcome.results, outcome.op_costs_ms
        ):
            results[index] = r
            costs[index] = c
    assert list(result.op_costs_ms) == costs
    assert [None if r is None else bytes(r) for r in result.results] == [
        None if r is None else bytes(r) for r in results
    ]
    for shard_a, shard_b in zip(sharded.shards, twin.shards):
        assert fingerprint(shard_a) == fingerprint(shard_b)


# ----------------------------------------------------------------------
# 3. Cross-shard crash containment
# ----------------------------------------------------------------------
def _pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + salt * 7 + 5) % 251 for i in range(n))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("victim", (0, 1))
def test_cross_shard_crash_never_corrupts_siblings(
    scheme: str, victim: int
) -> None:
    """Sweep a crash over every write of one shard's sub-batch.

    The crashed shard must rebuild (from its image alone) to its
    batch-start or batch-end content; the sibling shard must hold
    exactly its pre-batch state (victim crashed first, so the sibling's
    sub-batch never ran) or its committed post-batch state (victim
    crashed second) — never anything in between, and never any damage
    from the other shard's crash.
    """
    config = small_page_config()
    page = config.page_size

    def fresh() -> tuple[ShardedStore, list[int], list[object]]:
        store = ShardedStore(
            scheme, config, shards=2, leaf_pages=2, threshold_pages=2
        )
        oids = [
            store.create(_pattern(4 * page + 21, salt=i)) for i in range(2)
        ]
        mops = [
            multi_op(oids[0], append_op(_pattern(page + 5, salt=3))),
            multi_op(oids[1], append_op(_pattern(page + 9, salt=4))),
            multi_op(oids[0], insert_op(page + 7, _pattern(300, salt=5))),
            multi_op(oids[1], delete_op(page, 2 * page)),
            multi_op(oids[1], insert_op(13, _pattern(200, salt=6))),
            multi_op(oids[0], delete_op(2 * page + 1, page)),
        ]
        return store, oids, mops

    # Dry run: committed contents per shard and the victim's write count.
    store, oids, mops = fresh()
    pre = [bytes(store.read(o, 0, store.size(o))) for o in oids]
    writes_before = store.shards[victim].stats.write_calls
    store.submit_many(mops)
    n_writes = store.shards[victim].stats.write_calls - writes_before
    post = [bytes(store.read(o, 0, store.size(o))) for o in oids]
    assert n_writes >= 1
    sibling = 1 - victim

    seen: set[str] = set()
    for k in range(1, n_writes + 1):
        store, oids, mops = fresh()
        injector = FaultInjector(
            store.shards[victim].env, FaultPlan(crash_writes=at(k))
        )
        with injector:
            with pytest.raises(CrashError):
                store.submit_many(mops)
        # Victim: image-only rebuild reaches a committed state.
        assert not store.shards[victim].env.disk.verify_checksums()
        recovered = bytes(
            rebuild_content(
                store.shards[victim], store.local_oid(oids[victim])
            )
        )
        assert recovered in (pre[victim], post[victim]), (
            f"{scheme}: crash at write {k}/{n_writes} on shard {victim} "
            "rebuilt content matching neither batch-start nor batch-end"
        )
        seen.add("post" if recovered == post[victim] else "pre")
        # Sibling: fully committed (ran before the victim) or untouched
        # (victim crashed first); its own checksums are intact either way.
        assert not store.shards[sibling].env.disk.verify_checksums()
        sibling_content = bytes(
            store.read(oids[sibling], 0, store.size(oids[sibling]))
        )
        if sibling < victim:
            assert sibling_content == post[sibling]
        else:
            assert sibling_content == pre[sibling]
    assert "pre" in seen  # the earliest crash must predate the commit


# ----------------------------------------------------------------------
# Shard scaling experiment
# ----------------------------------------------------------------------
#: ``compute_shard_point`` at tiny scale, per (scheme, shards):
#: (makespan_sim_ms, total_sim_ms, io_calls, pages).
TINY_SHARD_POINTS = {
    ("esm", 1): (28691.0, 28691.0, 647, 1835),
    ("esm", 2): (14295.0, 28025.0, 633, 1784),
    ("esm", 4): (7232.0, 26779.0, 607, 1687),
    ("esm", 8): (3621.0, 25422.0, 578, 1587),
    ("starburst", 1): (10796.0, 10796.0, 136, 1577),
    ("starburst", 2): (3214.0, 5993.0, 97, 698),
    ("starburst", 4): (1491.0, 4342.0, 78, 442),
    ("starburst", 8): (560.0, 2858.0, 62, 203),
    ("eos", 1): (27780.0, 27780.0, 660, 1500),
    ("eos", 2): (13596.0, 27144.0, 648, 1440),
    ("eos", 4): (7124.0, 25323.0, 603, 1356),
    ("eos", 8): (3781.0, 23883.0, 567, 1293),
}


def test_shard_scaling_experiment_is_deterministic_and_consistent() -> None:
    scale = resolve_scale("tiny")
    clear_cache()
    for (scheme, shards), expected in TINY_SHARD_POINTS.items():
        point = compute_shard_point(scheme, shards, scale)
        observed = (
            point.makespan_sim_ms,
            point.total_sim_ms,
            point.io_calls,
            point.pages,
        )
        assert observed == expected, (scheme, shards)
    single = compute_shard_point("eos", 1, scale)
    double = compute_shard_point("eos", 2, scale)
    assert single.makespan_sim_ms == single.total_sim_ms
    assert double.makespan_sim_ms < single.makespan_sim_ms
    assert double.makespan_sim_ms >= double.total_sim_ms / 2
    # The memoized path returns the computed values, once per key.
    memo = run_shard_point("eos", 2, scale)
    assert memo == double
    assert run_shard_point("eos", 2, scale) is memo
    clear_cache()


def test_shard_span_costs_accumulate_to_the_merged_ledger() -> None:
    """Per-shard ``shard.measure`` spans sum to the point's ledger."""
    tracer = Tracer()
    with installed(tracer):
        point = compute_shard_point("eos", 2, resolve_scale("tiny"))
    spans = [r for r in tracer.records if r["t"] == "span"]

    def total(kind: str, *fields: str) -> int:
        return sum(r[f] for r in spans if r["kind"] == kind for f in fields)

    calls = ("read_calls", "write_calls")
    assert total("shard.measure", *calls) == point.io_calls
    assert total("shard.measure", "pages_read", "pages_written") == (
        point.pages
    )
    assert [
        r["attrs"]["shard"] for r in spans if r["kind"] == "shard.measure"
    ] == [0, 1]
    assert total("shard.setup", *calls) > 0
    # The per-op breakdown survives the per-shard split.
    assert total("op.insert", *calls) > 0
