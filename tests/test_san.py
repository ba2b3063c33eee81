"""Runtime pin-balance sanitizer and pin-leak regression tests.

Two halves.  The first exercises the sanitizer itself: the
``REPRO_CHECKS`` flag, site attribution on
:meth:`BufferPool.assert_pin_balanced`, and the per-operation guard that
:meth:`LargeObjectManager._op_span` installs around every manager op, on
its normal and failed exits.  The second half pins down concrete leak
sites found and fixed earlier — each test forces the original exception
path and asserts the pool comes out balanced (or, for the tree-backed
operation bracket, that no flush happens on failure).
"""

import pytest

from repro.buddy.allocator import BuddyAllocator
from repro.buddy.area import DATA_AREA_BASE
from repro.buddy.space import BuddySpace
from repro.buffer.pool import BufferPool
from repro.core.api import make_manager
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import (
    ByteRangeError,
    ContractViolationError,
    CrashError,
    IOFaultError,
)
from repro.disk.disk import SimulatedDisk
from repro.disk.iomodel import CostModel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at, every
from repro.lint.contracts import checks_enabled
from repro.records.schema import Schema
from repro.records.store import RecordStore
from repro.starburst.descriptor import Segment
from repro.tree.node import IndexNode, LeafExtent
from repro.tree.tree import PositionalTree
from tests.conftest import end_op, pattern_bytes


def make_pool():
    config = small_page_config()
    return BufferPool(config, SimulatedDisk(config, CostModel(config)))


@pytest.fixture
def pool():
    return make_pool()


def make_env():
    return StorageEnvironment(small_page_config(page_size=128))


def make_tree(env):
    tree = PositionalTree(
        env.config, env.pool, env.areas.meta, data_base=DATA_AREA_BASE
    )
    tree.create()
    return tree


# ----------------------------------------------------------------------
# The sanitizer itself
# ----------------------------------------------------------------------
class TestSanitizerFlag:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        assert not checks_enabled()
        pool = make_pool()  # the disk reads the flag when it is built
        pool.fix(0)
        with pytest.raises(ContractViolationError) as exc:
            pool.assert_pin_balanced()
        assert "fixed at" not in str(exc.value)  # no site was recorded
        pool.unfix(0)

    def test_on_when_flag_set(self, checked):
        assert checks_enabled()

    def test_balanced_pool_passes(self, checked, pool):
        pool.fix(0)
        pool.fix(1)
        pool.unfix(1)
        pool.unfix(0)
        pool.assert_pin_balanced("op.test")

    def test_leak_raises_with_site_attribution(self, checked, pool):
        pool.fix(3)
        with pytest.raises(ContractViolationError) as exc:
            pool.assert_pin_balanced("op.test")
        message = str(exc.value)
        assert "after op.test" in message
        assert "page 3 x1" in message
        # The acquisition site names this test function in this file.
        assert "test_san.py" in message
        assert "test_leak_raises_with_site_attribution" in message

    def test_double_pin_reports_both_sites(self, checked, pool):
        pool.fix(2)
        pool.fix(2)
        with pytest.raises(ContractViolationError) as exc:
            pool.assert_pin_balanced()
        assert "page 2 x2" in str(exc.value)

    def test_site_popped_on_unfix(self, checked, pool):
        def sites():
            with pytest.raises(ContractViolationError) as exc:
                pool.assert_pin_balanced()
            return str(exc.value).count("test_san.py")

        pool.fix(5)
        pool.fix(5)
        pool.unfix(5)
        assert sites() == 1
        pool.unfix(5)
        pool.assert_pin_balanced()
        pool.fix(5)  # a fresh pin lists its own site only
        assert sites() == 1
        pool.unfix(5)

    def test_accounting_drift_detected(self, checked, pool):
        pool.headroom -= 1  # simulate a bookkeeping bug: no page is pinned
        with pytest.raises(ContractViolationError, match="drift"):
            pool.assert_pin_balanced("op.test")

    def test_without_flag_no_sites_but_leak_still_caught(self, monkeypatch):
        # assert_pin_balanced works regardless of the flag; only the
        # call-site attribution needs REPRO_CHECKS=1.
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        pool = make_pool()
        pool.fix(4)
        with pytest.raises(ContractViolationError) as exc:
            pool.assert_pin_balanced()
        assert "page 4 x1" in str(exc.value)
        assert "fixed at" not in str(exc.value)


# ----------------------------------------------------------------------
# The per-operation guard installed by _op_span
# ----------------------------------------------------------------------
SCHEMES = ("esm", "starburst", "eos", "blockbased")


class TestOpSpanGuard:
    def test_leak_across_an_op_is_reported(self, checked):
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)
        oid = manager.create(pattern_bytes(64))
        env.pool.fix(0)  # a pin the operation does not own
        with pytest.raises(ContractViolationError, match="pin leak"):
            manager.read(oid, 0, 16)
        env.pool.unfix(0)

    def test_failed_op_does_not_mask_its_error(self, checked):
        # A failing operation that leaves no pin surfaces its own error.
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)
        oid = manager.create(pattern_bytes(64))
        with pytest.raises(ByteRangeError):
            manager.read(oid, 10_000, 16)

    def test_leak_across_a_failed_op_is_chained_to_its_error(self, checked):
        # On a live environment the guard also checks a failing
        # operation; the report keeps the operation's error as its cause.
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)
        oid = manager.create(pattern_bytes(5 * env.config.page_size))
        env.pool.flush_all()
        env.pool.reset()  # the read below must reach the disk
        env.pool.fix(0)
        plan = FaultPlan(read_faults=every(1), transient_failures=99)
        with FaultInjector(env, plan):
            with pytest.raises(ContractViolationError, match="pin leak") as exc:
                manager.read(oid, 0, 16)
        assert isinstance(exc.value.__cause__, IOFaultError)
        env.pool.unfix(0)

    def test_crashed_op_surfaces_the_crash(self, checked):
        # After an injected crash the disk is halted and nothing is
        # checked: the crash is the error, whatever pins the op held.
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)
        oid = manager.create(pattern_bytes(64))
        env.pool.fix(0)
        with FaultInjector(env, FaultPlan(crash_writes=at(1))):
            with pytest.raises(CrashError):
                manager.append(oid, pattern_bytes(300))
            assert env.disk.halted

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_clean_roundtrip_per_scheme(self, checked, scheme):
        env = make_env()
        manager = make_manager(scheme, env, leaf_pages=2, threshold_pages=2)
        page = env.config.page_size
        data = pattern_bytes(5 * page)
        oid = manager.create(data)
        assert manager.read(oid, 0, len(data)) == data
        manager.append(oid, pattern_bytes(page, salt=1))
        manager.replace(oid, 7, b"EDIT")
        manager.insert(oid, page, pattern_bytes(33, salt=2))
        manager.delete(oid, 2 * page, 50)
        manager.read(oid, 0, manager.size(oid))
        manager.destroy(oid)


# ----------------------------------------------------------------------
# Regression: pin-leak sites found and fixed earlier
# ----------------------------------------------------------------------
class _Boom(Exception):
    pass


class TestPinLeakRegressions:
    def test_records_load_page_miss_unwinds_balanced(self, monkeypatch):
        # RecordStore._load_page used to leave the page fixed when
        # SlottedPage construction raised on the cache-miss path.
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)
        store = RecordStore(Schema.of(name="text"), manager)
        rid = store.insert(name="Ada")
        store._cache.clear()  # force the miss path

        def explode(*args, **kwargs):
            raise _Boom

        monkeypatch.setattr("repro.records.store.SlottedPage", explode)
        with pytest.raises(_Boom):
            store.get(rid)
        env.pool.assert_pin_balanced()

    def test_buddy_free_unwinds_balanced(self, monkeypatch):
        # A directory visit used to skip the unfix when the space
        # mutation raised.  free() now touches the directory without a
        # pin; the mutation still raises after the touch.
        config = small_page_config()
        pool = BufferPool(config, SimulatedDisk(config, CostModel(config)))
        allocator = BuddyAllocator(config, pool, base_page_id=0, name="test")
        page_id = allocator.allocate(1)

        def explode(self, offset, n_blocks):
            raise _Boom

        monkeypatch.setattr(BuddySpace, "free_range", explode)
        with pytest.raises(_Boom):
            allocator.free(page_id, 1)
        pool.assert_pin_balanced()

    def test_buddy_allocate_unwinds_balanced(self, monkeypatch):
        # The same on the other visit (_try_allocate_in_space).
        config = small_page_config()
        pool = BufferPool(config, SimulatedDisk(config, CostModel(config)))
        allocator = BuddyAllocator(config, pool, base_page_id=0, name="test")
        allocator.allocate(1)

        def explode(self, n_blocks):
            raise _Boom

        monkeypatch.setattr(BuddySpace, "allocate", explode)
        with pytest.raises(_Boom):
            allocator.allocate(1)
        pool.assert_pin_balanced()

    def test_tree_get_node_unwinds_balanced(self, monkeypatch):
        # PositionalTree._get_node used to leave the index page fixed
        # when deserialization raised on a node-cache miss.
        env = make_env()
        tree = make_tree(env)
        for index in range(20):  # deep enough for non-root index nodes
            page_id = env.areas.data.allocate(1)
            tree.append_extent(LeafExtent(
                page_id=page_id, used_bytes=100, alloc_pages=1,
            ))
        end_op(tree)
        assert tree.height >= 2
        root = tree._get_node(tree.root_page_id)
        child = root.refs[0]
        assert isinstance(child, int)
        del tree._nodes[child]  # force the reload path

        def explode(*args, **kwargs):
            raise _Boom

        monkeypatch.setattr(IndexNode, "deserialize", explode)
        with pytest.raises(_Boom):
            tree.locate(0)
        env.pool.assert_pin_balanced()

    def test_tree_backed_op_flushes_on_success_only(self):
        # TreeBackedManager._op used to call end_op() from a finally:,
        # pushing half-applied index state at the disk on failure — the
        # crash-safety bug class the cleanup contract refuses at run time.
        env = make_env()
        manager = make_manager("esm", env, leaf_pages=2)

        class StubTree:
            begun = 0
            ended = 0

            def begin_op(self):
                self.begun += 1

            def end_op(self):
                self.ended += 1
                return False

        stub = StubTree()
        with pytest.raises(_Boom):
            with manager._op(stub):
                raise _Boom
        assert stub.begun == 1
        assert stub.ended == 0
        with manager._op(stub):
            pass
        assert stub.ended == 1

    @pytest.mark.parametrize("scheme", ["esm", "eos", "starburst"])
    def test_a_raising_op_body_keeps_its_change_and_writes_nothing(
        self, scheme
    ):
        # The same rule on a real tree or descriptor: the body's change
        # stays pending in memory, nothing is written or poked, and the
        # next successful operation flushes it.
        env = make_env()
        manager = make_manager(scheme, env, leaf_pages=2, threshold_pages=2)
        oid = manager.create(pattern_bytes(3 * env.config.page_size))
        if scheme == "starburst":
            target = manager.descriptor_of(oid)
        else:
            target = manager.tree_of(oid)
        image = env.disk.image()
        writes = env.cost.stats.write_calls
        with pytest.raises(_Boom):
            with manager._op(target):
                if scheme == "starburst":
                    target.segments.append(Segment(
                        page_id=DATA_AREA_BASE, alloc_pages=1, used_bytes=1
                    ))
                else:
                    target.append_extent(LeafExtent(
                        page_id=DATA_AREA_BASE, used_bytes=1, alloc_pages=1
                    ))
                raise _Boom
        assert env.disk.image() == image
        assert env.cost.stats.write_calls == writes
        with manager._op(target):
            pass
        assert env.disk.peek_pages(oid, 1) != image[oid]


# ----------------------------------------------------------------------
# Full-stack smoke: the suite's own env matches the CI job's
# ----------------------------------------------------------------------
def test_sanitized_store_survives_mixed_workload(checked):
    env = make_env()
    manager = make_manager("eos", env, threshold_pages=2)
    page = env.config.page_size
    oids = [manager.create(pattern_bytes(n * page, salt=n)) for n in (1, 3, 7)]
    for step, oid in enumerate(oids * 3):
        manager.append(oid, pattern_bytes(40, salt=step))
        manager.replace(oid, step * 8, b"x" * 5)
        manager.read(oid, 0, min(manager.size(oid), 2 * page))
    for oid in oids:
        manager.destroy(oid)
    env.pool.assert_pin_balanced("workload")
