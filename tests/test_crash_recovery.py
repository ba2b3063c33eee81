"""Crash-injection tests: shadowing makes operations recoverable.

The claim under test (Section 3.3): because shadowing never overwrites a
page holding committed state, a crash at *any* point during an operation
— before the final root/descriptor write — leaves the object's previous
content reconstructible from the disk image.  Without shadowing, in-place
overwrites destroy the committed state.
"""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, at
from repro.recovery.crash import CrashError, rebuild_content
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()

SCHEME_SETTINGS = [
    ("esm", {"leaf_pages": 2}),
    ("starburst", {}),
    ("eos", {"threshold_pages": 2}),
    ("blockbased", {}),
]


def make_store(scheme, options, shadowing=True):
    return LargeObjectStore(scheme, CONFIG, shadowing=shadowing, **options)


def arm_crash(store, writes_before_crash):
    """Crash on the (N+1)-th physical write call from now."""
    plan = FaultPlan(crash_writes=at(writes_before_crash + 1))
    return FaultInjector(store.env, plan).install()


def committed_object(store):
    """An object with some history, in a quiesced (committed) state."""
    data = pattern_bytes(10 * PAGE + 33)
    oid = store.create(data)
    store.insert(oid, 5 * PAGE, pattern_bytes(2 * PAGE, salt=1))
    store.delete(oid, 100, 64)
    content = store.read(oid, 0, store.size(oid))
    return oid, content


class TestRebuild:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_rebuild_matches_live_content(self, scheme, options):
        store = make_store(scheme, options)
        oid, content = committed_object(store)
        assert rebuild_content(store, oid) == content


class TestCrashWithShadowing:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_any_crash_point_preserves_committed_state(self, scheme, options):
        """Sweep every write count until the op completes: at each crash
        point, the pre-op content must be reconstructible."""
        budget = 0
        while True:
            store = make_store(scheme, options)
            oid, committed = committed_object(store)
            injector = arm_crash(store, budget)
            try:
                store.insert(
                    oid, 3 * PAGE + 17, pattern_bytes(3 * PAGE, salt=9)
                )
                injector.uninstall()
                break  # the operation completed: sweep done
            except CrashError:
                injector.uninstall()
                recovered = rebuild_content(store, oid)
                assert recovered == committed, (
                    f"{scheme}: crash after {budget} writes lost data"
                )
            budget += 1
            assert budget < 200, "operation never completed"

    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS[:3])
    def test_crash_during_delete_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        injector = arm_crash(store, 0)  # crash on the very first write
        with pytest.raises(CrashError):
            store.delete(oid, PAGE, 4 * PAGE)
        injector.uninstall()
        assert rebuild_content(store, oid) == committed

    def test_completed_operation_commits_new_state(self):
        store = make_store("eos", {"threshold_pages": 2})
        oid, _ = committed_object(store)
        patch = pattern_bytes(PAGE, salt=5)
        store.insert(oid, 200, patch)
        new_content = store.read(oid, 0, store.size(oid))
        assert rebuild_content(store, oid) == new_content


class TestCrashWithoutShadowing:
    def test_in_place_overwrite_loses_committed_state(self):
        """Without shadowing, a replace overwrites committed pages in
        place, so a crash mid-operation is unrecoverable."""
        store = make_store("eos", {"threshold_pages": 2}, shadowing=False)
        data = pattern_bytes(6 * PAGE)
        oid = store.create(data)
        store.manager.trim(oid)
        committed = store.read(oid, 0, store.size(oid))
        # Let the data overwrite land, then crash.
        injector = arm_crash(store, 1)
        try:
            store.replace(oid, 0, pattern_bytes(2 * PAGE, salt=7))
        except CrashError:
            pass
        injector.uninstall()
        recovered = rebuild_content(store, oid)
        assert recovered != committed, (
            "without shadowing the old state should be gone"
        )


class TestInjector:
    def test_rejects_negative_budget(self):
        store = make_store("eos", {})
        with pytest.raises(ValueError):
            arm_crash(store, -1)

    def test_disarm_restores_normal_writes(self):
        store = make_store("eos", {})
        injector = arm_crash(store, 0)
        injector.uninstall()
        oid = store.create(b"works fine")
        assert store.read(oid, 0, 10) == b"works fine"

    def test_context_manager_disarms(self):
        store = make_store("eos", {})
        with FaultInjector(store.env, FaultPlan(crash_writes=at(1))):
            pass
        oid = store.create(b"xy")
        assert store.size(oid) == 2


class TestMoreCrashScenarios:
    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
    def test_crash_during_append_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        injector = arm_crash(store, 0)
        with pytest.raises(CrashError):
            store.append(oid, pattern_bytes(4 * PAGE, salt=11))
        injector.uninstall()
        recovered = rebuild_content(store, oid)
        # The committed prefix survives: in-place appends only ever write
        # past the committed bytes (or into fresh segments).
        assert recovered[: len(committed)] == committed

    @pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS[:3])
    def test_crash_during_replace_recoverable(self, scheme, options):
        store = make_store(scheme, options)
        oid, committed = committed_object(store)
        injector = arm_crash(store, 0)
        with pytest.raises(CrashError):
            store.replace(oid, PAGE, pattern_bytes(3 * PAGE, salt=12))
        injector.uninstall()
        assert rebuild_content(store, oid) == committed

    def test_repeated_crashes_then_success(self):
        """A client retrying after crashes eventually commits cleanly."""
        patch = pattern_bytes(2 * PAGE, salt=13)
        budget = 0
        crashes = 0
        while True:
            store = make_store("eos", {"threshold_pages": 2})
            oid, committed = committed_object(store)
            injector = arm_crash(store, budget)
            try:
                store.insert(oid, 100, patch)
                injector.uninstall()
                break  # the retry finally succeeded
            except CrashError:
                injector.uninstall()
                crashes += 1
                # Model recovery: reopen from the committed image.
                assert rebuild_content(store, oid) == committed
            budget += 1
        assert crashes >= 1, "the injector never fired"
        expected = committed[:100] + patch + committed[100:]
        assert rebuild_content(store, oid) == expected
