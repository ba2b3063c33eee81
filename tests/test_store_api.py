"""Tests for the LargeObjectStore facade and StorageEnvironment knobs."""

import pytest

from repro.core.api import ALL_SCHEMES, SCHEMES, LargeObjectStore, make_manager
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.core.env import StorageEnvironment
from tests.conftest import pattern_bytes

CONFIG = small_page_config()


class TestSchemes:
    def test_paper_schemes(self):
        assert SCHEMES == ("esm", "starburst", "eos")

    def test_all_schemes_include_baseline(self):
        assert ALL_SCHEMES == SCHEMES + ("blockbased",)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            LargeObjectStore("btrfs", CONFIG)

    def test_scheme_property(self):
        for scheme in ALL_SCHEMES:
            assert LargeObjectStore(scheme, CONFIG).scheme == scheme

    def test_make_manager_shares_environment(self):
        env = StorageEnvironment(CONFIG)
        a = make_manager("esm", env, leaf_pages=1)
        b = make_manager("eos", env, threshold_pages=2)
        oid_a = a.create(b"from esm")
        oid_b = b.create(b"from eos")
        # Both managers charge the same ledger and share the areas.
        assert a.env.cost is b.env.cost
        assert a.read(oid_a, 0, 8) == b"from esm"
        assert b.read(oid_b, 0, 7) == b"from eo"


class TestOptionRouting:
    def test_leaf_pages_reaches_esm(self):
        store = LargeObjectStore("esm", CONFIG, leaf_pages=2)
        assert store.manager.options.leaf_pages == 2

    def test_threshold_reaches_eos(self):
        store = LargeObjectStore("eos", CONFIG, threshold_pages=8)
        assert store.manager.options.threshold_pages == 8

    def test_max_segment_reaches_starburst(self):
        store = LargeObjectStore("starburst", CONFIG, max_segment_pages=16)
        assert store.manager.max_segment_pages == 16

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            LargeObjectStore("esm", CONFIG, leaf_pages=0)
        with pytest.raises(ValueError):
            LargeObjectStore("eos", CONFIG, threshold_pages=0)


class TestPhantomMode:
    def test_costs_identical_between_modes(self):
        """The paper's trick: phantom leaf data changes nothing about the
        measured I/O, only whether bytes are retained."""
        def run(record_data):
            store = LargeObjectStore(
                "eos", CONFIG, threshold_pages=2, record_data=record_data
            )
            oid = store.create(pattern_bytes(2000))
            store.insert(oid, 500, pattern_bytes(300, salt=1))
            store.delete(oid, 100, 200)
            store.read(oid, 0, store.size(oid))
            return store.stats

        real = run(True)
        phantom = run(False)
        assert real.read_calls == phantom.read_calls
        assert real.write_calls == phantom.write_calls
        assert real.pages_transferred == phantom.pages_transferred

    def test_phantom_reads_return_zeros(self):
        store = LargeObjectStore("eos", CONFIG, record_data=False)
        oid = store.create(b"invisible")
        assert store.read(oid, 0, 9) == bytes(9)
        assert store.size(oid) == 9


class TestSnapshots:
    def test_elapsed_since_snapshot(self):
        store = LargeObjectStore("eos", CONFIG)
        oid = store.create(pattern_bytes(1000))
        snapshot = store.snapshot()
        assert store.elapsed_ms(snapshot) == 0.0
        store.read(oid, 0, 1000)
        assert store.elapsed_ms(snapshot) > 0.0
        assert store.elapsed_ms() >= store.elapsed_ms(snapshot)


class TestPaperConfigDefaults:
    def test_store_defaults_to_table1(self):
        store = LargeObjectStore("eos")
        assert store.config == PAPER_CONFIG
