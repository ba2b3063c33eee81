"""Property-based tests: every manager agrees with a bytearray model.

This is the strongest correctness statement in the suite: arbitrary
sequences of byte-range operations, executed against each storage scheme
in real-bytes mode, must produce exactly the bytes the ``bytearray``
model of :mod:`repro.workload.model` produces, while all structural
invariants hold.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.fsck import check as fsck_check
from repro.exec.plan import BatchOp, MultiOp
from repro.workload.model import ObjectModel

CONFIG = small_page_config()
SCHEME_SETTINGS = [
    ("esm", {"leaf_pages": 1}),
    ("esm", {"leaf_pages": 2}),
    ("esm", {"leaf_pages": 4, "improved_insert": False}),
    ("starburst", {}),
    ("eos", {"threshold_pages": 1}),
    ("eos", {"threshold_pages": 2}),
    ("eos", {"threshold_pages": 8}),
]

operation = st.tuples(
    st.sampled_from(["append", "insert", "delete", "replace", "read"]),
    st.integers(min_value=0, max_value=10_000),  # position selector
    st.integers(min_value=1, max_value=700),  # size
)


def _op(kind, position, size, payload, length):
    """The op a (kind, position, size) draw stands for on an object of
    ``length`` bytes, or None when it names nothing."""
    if kind in ("append", "insert"):
        return BatchOp(kind, position % (length + 1), data=payload)
    if not length:
        return None
    offset = position % length
    n = min(size, length - offset)
    return BatchOp(kind, offset, n, payload[:n])


def apply_ops(store, ops, check_every=5):
    model = ObjectModel()
    oid = store.create()
    model.create(oid)
    for index, (kind, position, size) in enumerate(ops):
        payload = bytes((index + 1 + i) % 251 for i in range(size))
        op = _op(kind, position, size, payload, model.size(oid))
        if op is not None:
            got = model.run(store, MultiOp(oid, op))
            assert got is None or got == model.read(oid, op.offset, op.nbytes)
        if index % check_every == 0:
            _full_check(store, model)
    _full_check(store, model)
    # No dangling references, double references, or leaked pages.
    report = fsck_check([(store.manager, [oid])])
    assert report.clean, report.summary()


def _full_check(store, model):
    assert model.differences(store) == []
    manager = store.manager
    for oid in model.oids():
        if store.scheme in ("esm", "eos"):
            manager.tree_of(oid).check_invariants()
        else:
            manager.descriptor_of(oid).check_invariants()
    store.env.areas.check_invariants()


@pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(operation, min_size=1, max_size=40))
def test_manager_matches_bytearray_model(scheme, options, ops):
    store = LargeObjectStore(scheme, CONFIG, **options)
    apply_ops(store, ops)


@pytest.mark.parametrize("scheme,options", SCHEME_SETTINGS[:2] + SCHEME_SETTINGS[3:5])
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(operation, min_size=1, max_size=40))
def test_manager_without_shadowing_matches_model(scheme, options, ops):
    """The ablation configuration must be just as correct."""
    store = LargeObjectStore(scheme, CONFIG, shadowing=False, **options)
    apply_ops(store, ops)


def test_all_schemes_agree_on_one_long_script():
    """A single deep deterministic script, run against every scheme."""
    import random

    rng = random.Random(2024)
    ops = []
    for _ in range(250):
        ops.append(
            (
                rng.choice(["append", "insert", "delete", "replace", "read"]),
                rng.randrange(10_000),
                rng.randint(1, 700),
            )
        )
    for scheme, options in SCHEME_SETTINGS:
        store = LargeObjectStore(scheme, CONFIG, **options)
        apply_ops(store, ops, check_every=25)
