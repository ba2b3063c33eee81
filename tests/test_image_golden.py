"""Raw disk images and I/O ledgers pinned across commits.

The identity tests elsewhere compare two execution modes of one commit
(phantom/recorded, per-op/batched).  These goldens pin
the *bytes*: the SHA-256 of the full disk image, buddy directories
included, and the final :class:`IOStats` after fixed-seed update mixes.
The expected values were computed at the commit before the index node
and the buddy map changed representation (PR 16), so a refactor of
either that moves one bit of an image or one charged I/O fails here.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config

TREE_CONFIG = small_page_config(page_size=128)
#: 2**11 blocks per space and segments of up to 2**10 pages, so one
#: Starburst tail copy frees and reallocates runs of 500+ pages.
STARBURST_CONFIG = small_page_config(
    page_size=512, buddy_space_order=11, max_segment_order=10
)

GOLDEN = {
    "esm": (
        "b7224591a9f9b75dc8f78146b7fa6af486b94774b8a18affba3ea1f411bdab2f",
        (11424, 13637, 11424, 13876, 0),
    ),
    "eos": (
        "4b960bcd2a811dd534ee0861091d4f86d372f9881b04e9d849cf0eba9ee7165f",
        (8111, 7650, 11621, 13965, 0),
    ),
    "starburst": (
        "37e84697cd14f05556cc50e2030bfdc842c3ac7700c79a44b4c19dc244d690e5",
        (18834, 11646, 141853, 144372, 0),
    ),
}


def _mix(store, oid, rng, ops, floor, ceiling, max_op) -> None:
    """Seeded insert/delete/append/replace mix holding the object's size
    between ``floor`` and ``ceiling`` bytes."""
    for _ in range(ops):
        size = store.size(oid)
        nbytes = rng.randint(1, max_op)
        kind = rng.choice(("insert", "delete", "append", "replace"))
        if size < floor or (kind == "delete" and size - nbytes < floor):
            kind = "append"
        elif size > ceiling and kind in ("insert", "append"):
            kind = "delete"
        if kind == "append":
            store.append(oid, rng.randbytes(nbytes))
        elif kind == "insert":
            store.insert(oid, rng.randint(0, size), rng.randbytes(nbytes))
        elif kind == "delete":
            store.delete(oid, rng.randint(0, size - nbytes), nbytes)
        else:
            nbytes = min(nbytes, size)
            store.replace(
                oid, rng.randint(0, size - nbytes), rng.randbytes(nbytes)
            )


def _fingerprint(store) -> tuple[str, tuple[int, ...]]:
    """SHA-256 over every page of the image, and the final ledger."""
    store.env.pool.flush_all()
    digest = hashlib.sha256()
    for page_id, content in sorted(store.env.disk.image().items()):
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(content)
    return digest.hexdigest(), dataclasses.astuple(store.stats)


@pytest.mark.parametrize("scheme", ["esm", "eos"])
def test_tree_mix_image_is_pinned(scheme):
    store = LargeObjectStore(
        scheme, TREE_CONFIG, leaf_pages=1, threshold_pages=1
    )
    rng = random.Random(1992)
    oid = store.create(rng.randbytes(60_000))
    _mix(store, oid, rng, 2_000, floor=40_000, ceiling=90_000, max_op=700)
    tree = store.manager.tree_of(oid)
    tree.check_invariants()
    assert tree.height >= 3
    assert _fingerprint(store) == GOLDEN[scheme]


def test_starburst_mix_image_is_pinned():
    store = LargeObjectStore("starburst", STARBURST_CONFIG)
    data = store.env.areas.data
    largest = {"allocate": 0, "free": 0}

    def watched(name, call):
        def wrapper(*args):
            largest[name] = max(largest[name], args[-1])
            return call(*args)

        return wrapper

    data.allocate = watched("allocate", data.allocate)
    data.free = watched("free", data.free)
    rng = random.Random(1992)
    oid = store.create(rng.randbytes(700_000))
    _mix(
        store, oid, rng, 150,
        floor=500_000, ceiling=900_000, max_op=20_000,
    )
    assert largest["allocate"] >= 500 and largest["free"] >= 500
    store.env.areas.check_invariants()
    assert _fingerprint(store) == GOLDEN["starburst"]
