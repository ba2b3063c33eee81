"""Tests for repro.faults: plans, injection, checksums, retries, halting.

The contract under test: with no faults armed the storage stack is
bit-identical to a plain run (same stats, same disk images, zero
retries); with faults armed, every injected misbehaviour is detected —
transient faults are retried and accounted, permanent faults escape,
torn writes and crashes halt the machine, and silent corruption is
caught by the page checksum envelope and localized by fsck.
"""

import dataclasses

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import (
    ChecksumError,
    CrashError,
    InvalidArgumentError,
    IOFaultError,
)
from repro.disk.iomodel import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, NEVER, Schedule, at, every
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()


def make_store(scheme="esm", **options):
    return LargeObjectStore(scheme, CONFIG, shadowing=True, **options)


# ----------------------------------------------------------------------
# Schedules and plans
# ----------------------------------------------------------------------
class TestSchedule:
    def test_points_fire_exactly(self):
        schedule = at(2, 5)
        assert [c for c in range(1, 8) if schedule.fires(c)] == [2, 5]

    def test_periodic_fires_from_start(self):
        schedule = every(3, start=2)
        assert [c for c in range(1, 10) if schedule.fires(c)] == [2, 5, 8]

    def test_never_is_empty(self):
        assert not any(NEVER.fires(call) for call in range(1, 100))
        assert at(1).fires(1)
        assert any(every(4).fires(call) for call in range(1, 9))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Schedule(points=frozenset({0}))
        with pytest.raises(InvalidArgumentError):
            Schedule(period=-1)
        with pytest.raises(InvalidArgumentError):
            Schedule(start=0)
        with pytest.raises(InvalidArgumentError):
            every(0)

    def test_plan_validation(self):
        with pytest.raises(InvalidArgumentError):
            FaultPlan(transient_failures=0)
        with pytest.raises(InvalidArgumentError):
            FaultPlan(torn_prefix_pages=-1)


# ----------------------------------------------------------------------
# No faults armed: bit-identical invariance
# ----------------------------------------------------------------------
def _exercise(store):
    oid = store.create(pattern_bytes(6 * PAGE + 7))
    store.insert(oid, 2 * PAGE, pattern_bytes(PAGE, salt=1))
    store.delete(oid, 50, 20)
    store.append(oid, pattern_bytes(PAGE + 3, salt=2))
    content = bytes(store.read(oid, 0, store.size(oid)))
    return oid, content


class TestNoFaultInvariance:
    def test_empty_plan_changes_nothing(self):
        baseline = make_store()
        oid, expected = _exercise(baseline)

        injected = make_store()
        with FaultInjector(injected.env, FaultPlan()) as injector:
            oid2, content = _exercise(injected)
        assert (oid2, content) == (oid, expected)
        assert injector.events == []
        assert dataclasses.asdict(injected.stats) == dataclasses.asdict(
            baseline.stats
        )
        assert injected.stats.retries == 0

    def test_retries_counter_defaults_to_zero(self):
        store = make_store()
        _exercise(store)
        assert store.stats.retries == 0


# ----------------------------------------------------------------------
# Transient faults and retry accounting
# ----------------------------------------------------------------------
class TestRetries:
    def test_transient_write_fault_is_retried_and_counted(self):
        store = make_store()
        plan = FaultPlan(write_faults=at(1), transient_failures=1)
        with FaultInjector(store.env, plan):
            oid, content = _exercise(store)
        assert store.stats.retries == 1
        # The retry is also an ordinary charged call, so the object state
        # is unharmed.
        assert bytes(store.read(oid, 0, store.size(oid))) == content

    def test_transient_read_fault_is_retried(self):
        store = make_store()
        _exercise(store)
        disk = store.env.disk
        page = next(
            p for p, content in disk.image().items() if content is not None
        )
        expected = disk.peek_pages(page, 1)
        before = store.stats.retries
        plan = FaultPlan(read_faults=every(1), transient_failures=1)
        with FaultInjector(store.env, plan):
            # Bypass the pool: the fault lives on the physical read path.
            assert bytes(disk.read_pages(page, 1)) == expected
        assert store.stats.retries == before + 1

    def test_permanent_fault_escapes_after_retry_budget(self):
        store = make_store()
        store.env.disk.retry_policy = RetryPolicy(max_attempts=3)
        plan = FaultPlan(write_faults=at(1), transient_failures=99)
        with FaultInjector(store.env, plan):
            with pytest.raises(IOFaultError):
                store.create(pattern_bytes(4 * PAGE))
        # Two retries happened before the third attempt gave up.
        assert store.stats.retries == 2

    def test_non_transient_fault_is_never_retried(self):
        store = make_store()
        plan = FaultPlan(write_faults=at(1), transient=False)
        with FaultInjector(store.env, plan):
            with pytest.raises(IOFaultError) as excinfo:
                store.create(pattern_bytes(4 * PAGE))
        assert not excinfo.value.transient
        assert store.stats.retries == 0

    def test_retry_policy_validation(self):
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# Crashes and the halt latch
# ----------------------------------------------------------------------
class TestCrash:
    def test_crash_fires_at_scheduled_write(self):
        store = make_store()
        with FaultInjector(store.env, FaultPlan(crash_writes=at(1))):
            with pytest.raises(CrashError):
                store.create(pattern_bytes(4 * PAGE))
        assert not store.env.disk.halted  # uninstall reopened the image

    def test_halted_disk_refuses_all_io_until_reopened(self):
        store = make_store()
        disk = store.env.disk
        injector = FaultInjector(store.env, FaultPlan(crash_writes=at(1)))
        injector.install()
        with pytest.raises(CrashError):
            store.create(pattern_bytes(4 * PAGE))
        assert disk.halted
        # The dead machine persists nothing and reads nothing.
        with pytest.raises(CrashError):
            disk.poke_pages(0, b"x")
        with pytest.raises(CrashError):
            disk.write_pages(0, 1, b"x")
        with pytest.raises(CrashError):
            disk.discard_pages(0, 1)
        injector.uninstall()
        assert not disk.halted

    def test_torn_write_persists_only_a_prefix_and_halts(self):
        store = make_store()
        disk = store.env.disk
        data = pattern_bytes(4 * PAGE)
        injector = FaultInjector(
            store.env, FaultPlan(torn_writes=every(1), torn_prefix_pages=1)
        )
        injector.install()
        # The tear raises CrashError("torn write"); cleanup code in the
        # dying operation then trips the halt latch, whose CrashError is
        # the one that ultimately propagates.
        with pytest.raises(CrashError):
            store.create(data)
        assert disk.halted
        assert any("torn" in event for event in injector.events)
        injector.uninstall()
        # Exactly one page of the first multi-page run persisted; its
        # checksum envelope matches the partial image (the tear is a
        # prefix, not corruption).
        assert disk.verify_checksums() == []

    def test_single_page_writes_are_never_torn(self):
        store = make_store()
        plan = FaultPlan(torn_writes=every(1))
        with FaultInjector(store.env, plan) as injector:
            oid = store.create(pattern_bytes(PAGE // 2))
            assert injector.events == [] or not any(
                "torn" in e for e in injector.events
            )
        assert bytes(store.read(oid, 0, PAGE // 2)) == pattern_bytes(
            PAGE // 2
        )


# ----------------------------------------------------------------------
# Checksums and silent corruption
# ----------------------------------------------------------------------
class TestChecksums:
    def test_corrupt_page_read_raises_checksum_error(self):
        store = make_store()
        oid = store.create(pattern_bytes(4 * PAGE))
        page = next(
            p
            for p in range(2**63)
            if store.env.disk.was_written(p)
            and store.env.disk.peek_pages(p, 1) != bytes(PAGE)
        )
        store.env.disk.corrupt_page(page, bit_index=13)
        with pytest.raises(ChecksumError) as excinfo:
            store.env.disk.read_pages(page, 1)
        assert excinfo.value.page_id == page

    def test_verify_checksums_localizes_the_page(self):
        store = make_store()
        store.create(pattern_bytes(4 * PAGE))
        disk = store.env.disk
        assert disk.verify_checksums() == []
        victim = max(
            p for p, content in disk.image().items() if content is not None
        )
        disk.corrupt_page(victim, bit_index=0)
        assert disk.verify_checksums() == [victim]

    def test_injected_corruption_is_silent_until_read(self):
        store = make_store()
        plan = FaultPlan(corruption=at(1), seed=7)
        with FaultInjector(store.env, plan) as injector:
            oid = store.create(pattern_bytes(4 * PAGE))
            assert any("corrupted" in e for e in injector.events)
        bad = store.env.disk.verify_checksums()
        assert len(bad) == 1
        with pytest.raises(ChecksumError):
            store.env.disk.read_pages(bad[0], 1)
        # fsck reports the same page.
        from repro.core.fsck import check

        report = check([(store.manager, [oid])])
        assert report.corrupt_pages == bad
        assert not report.clean
        assert "corrupt" in report.summary()

    def test_corruption_seed_is_deterministic(self):
        def corrupted_page(seed):
            store = make_store()
            plan = FaultPlan(corruption=at(1), seed=seed)
            with FaultInjector(store.env, plan):
                store.create(pattern_bytes(4 * PAGE))
            return store.env.disk.verify_checksums()

        assert corrupted_page(3) == corrupted_page(3)

    def test_phantom_pages_have_no_checksums(self):
        store = LargeObjectStore("esm", CONFIG, record_data=False)
        oid = store.create(bytes(6 * PAGE))
        store.append(oid, bytes(PAGE))
        disk = store.env.disk
        assert disk.verify_checksums() == []
        with pytest.raises(InvalidArgumentError):
            # Phantom pages store no bytes; nothing to corrupt.
            disk.corrupt_page(
                next(p for p, c in disk.image().items() if c is None),
                bit_index=0,
            )

    def test_phantom_reports_unchanged_by_checksum_envelope(self):
        """Phantom-mode cost counters are identical with the envelope in
        place (no checksum work happens for unrecorded pages)."""

        def run():
            store = LargeObjectStore("eos", CONFIG, record_data=False)
            oid = store.create(bytes(20 * PAGE))
            store.insert(oid, 5 * PAGE, bytes(2 * PAGE))
            store.delete(oid, 0, PAGE)
            return dataclasses.asdict(store.stats)

        assert run() == run()


# ----------------------------------------------------------------------
# Injector lifecycle
# ----------------------------------------------------------------------
class TestInjectorLifecycle:
    def test_only_one_site_per_disk(self):
        store = make_store()
        first = FaultInjector(store.env, FaultPlan()).install()
        with pytest.raises(InvalidArgumentError):
            FaultInjector(store.env, FaultPlan()).install()
        first.uninstall()
        FaultInjector(store.env, FaultPlan()).install().uninstall()

    def test_uninstall_is_idempotent_and_ends_retention(self):
        disk = make_store().env.disk
        for page in (3, 4):
            disk.write_pages(page, 1, bytes([page]) * PAGE)
        injector = FaultInjector(disk, FaultPlan()).install()
        disk.discard_pages(3, 1)
        assert disk.peek_pages(3, 1) == bytes([3]) * PAGE
        injector.uninstall()
        injector.uninstall()
        disk.discard_pages(4, 1)
        assert not disk.was_written(4)

    def test_context_manager_uninstalls_on_exception(self):
        store = make_store()
        with pytest.raises(CrashError):
            with FaultInjector(store.env, FaultPlan(crash_writes=at(1))):
                store.create(pattern_bytes(4 * PAGE))
        assert store.env.disk.fault_site is None

    def test_injector_accepts_bare_disk(self):
        store = make_store()
        injector = FaultInjector(store.env.disk, FaultPlan()).install()
        assert store.env.disk.fault_site is injector
        injector.uninstall()


# ----------------------------------------------------------------------
# Retry accounting: retried attempts land once in `retries` AND once in
# the base call/page counters (the charge_retry_* contract)
# ----------------------------------------------------------------------
class TestRetryAccounting:
    def _two_adjacent_pages(self, store):
        """(page_id, page_count) of a written 2-page run on the disk."""
        disk = store.env.disk
        image = disk.image()
        written = sorted(
            p for p, content in image.items() if content is not None
        )
        for page in written:
            if page + 1 in image:
                return page
        raise AssertionError("no adjacent written pages")

    def test_retried_write_counts_once_in_retries_and_base(self):
        store = make_store()
        store.create(pattern_bytes(4 * PAGE))
        page = self._two_adjacent_pages(store)
        before = store.snapshot()
        plan = FaultPlan(write_faults=at(1), transient_failures=1)
        with FaultInjector(store.env, plan):
            store.env.disk.write_pages(page, 2, pattern_bytes(2 * PAGE, 1))
        delta = store.stats.delta(before)
        # One logical write = the failed first attempt (charged as a
        # retry AND as a base call) plus the successful second attempt.
        assert delta.retries == 1
        assert delta.write_calls == 2
        assert delta.pages_written == 4
        assert delta.read_calls == 0

    def test_retried_read_counts_once_in_retries_and_base(self):
        store = make_store()
        store.create(pattern_bytes(4 * PAGE))
        page = self._two_adjacent_pages(store)
        before = store.snapshot()
        plan = FaultPlan(read_faults=at(1), transient_failures=1)
        with FaultInjector(store.env, plan):
            store.env.disk.read_pages(page, 2)
        delta = store.stats.delta(before)
        assert delta.retries == 1
        assert delta.read_calls == 2
        assert delta.pages_read == 4
        assert delta.write_calls == 0

    def test_torn_write_replay_still_counts_the_retry_once(self):
        # A transient fault on the first attempt, then a torn write on
        # the replayed attempt: the retry must appear exactly once in
        # `retries` and the torn attempt is still a charged base call.
        store = make_store()
        store.create(pattern_bytes(4 * PAGE))
        page = self._two_adjacent_pages(store)
        before = store.snapshot()
        plan = FaultPlan(
            write_faults=at(1),
            torn_writes=at(1),
            transient_failures=1,
            torn_prefix_pages=1,
        )
        with FaultInjector(store.env, plan):
            with pytest.raises(CrashError):
                store.env.disk.write_pages(
                    page, 2, pattern_bytes(2 * PAGE, 2)
                )
        delta = store.stats.delta(before)
        assert delta.retries == 1
        assert delta.write_calls == 2
        assert delta.pages_written == 4
