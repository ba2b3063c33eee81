"""A tree-backed object stops at 2**32 - 1 bytes, cleanly.

An index page stores 4-byte cumulative counts, so that is the largest
object the positional tree can describe.  Growth past it is refused with
a typed error before the first change — by the managers before their
first segment write, by the tree's own mutators for any other caller —
and the refused operation leaves no trace: the next one works.  Each of
those refusals is a ``limit-*`` or ``tree-*-past-the-limit`` row of the
refusal table in ``tests/test_refusals.py``.
"""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.errors import ObjectTooLargeError, ReproError
from repro.core.payload import SizedPayload
from repro.tree.node import MAX_OBJECT_BYTES

GIB = 1 << 30


def test_the_limit_is_what_four_bytes_hold():
    assert MAX_OBJECT_BYTES == 2**32 - 1
    assert issubclass(ObjectTooLargeError, ReproError)


def test_the_reported_wedge():
    """Four 1 GiB appends to a phantom EOS object (32 MB segments): the
    fourth used to die in ``end_op`` with ``struct.error`` after the tree
    had changed, and so did every operation after it."""
    store = LargeObjectStore("eos", record_data=False)
    oid = store.create()
    for _ in range(3):
        store.append(oid, SizedPayload(GIB))
    with pytest.raises(ObjectTooLargeError):
        store.append(oid, SizedPayload(GIB))
    assert store.size(oid) == 3 * GIB
    store.append(oid, b"x" * 10)
    assert store.size(oid) == 3 * GIB + 10
