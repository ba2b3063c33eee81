"""Micro-batched buddy split/coalesce cascades (PR 7 residual).

``BuddySpace`` maintains a one-bit-per-order index (``_order_mask``) of
which free lists are non-empty.  The hot paths — the split cascade of
``_take_extent`` and the coalescing cascade of
``_release_range`` — now edit a *local* copy of that mask and store it
back once per cascade instead of once per level.  The optimization must
be invisible: free lists, mask, bitmap, and counters after every
operation are exactly what the textbook per-level maintenance produces.

The reference model below is that textbook implementation (sorted lists,
mask recomputed from scratch on every mutation); the tests drive both
through identical randomized churn and compare complete state after
every single operation.
"""

from __future__ import annotations

import random

import pytest

from repro.buddy.space import BuddySpace


class ReferenceBuddy:
    """Deliberately naive buddy system: per-level index maintenance."""

    def __init__(self, order: int) -> None:
        self.order = order
        self.total = 1 << order
        self.free_sets: list[set[int]] = [set() for _ in range(order + 1)]
        self.free_sets[order].add(0)
        self.allocated: set[int] = set()

    @property
    def order_mask(self) -> int:
        mask = 0
        for k, extents in enumerate(self.free_sets):
            if extents:
                mask |= 1 << k
        return mask

    def allocate(self, n_blocks: int) -> int:
        k = (n_blocks - 1).bit_length()
        j = next(
            (
                j
                for j in range(k, self.order + 1)
                if self.free_sets[j]
            ),
            None,
        )
        assert j is not None, "reference out of space"
        # Match BuddySpace: set.pop() order is insertion-history-defined,
        # so the reference must take the same extent the real space will.
        offset = self._pop_like_set(j)
        while j > k:
            j -= 1
            self.free_sets[j].add(offset + (1 << j))
        self.allocated.update(range(offset, offset + n_blocks))
        surplus = (1 << k) - n_blocks
        if surplus:
            self._release(offset + n_blocks, surplus)
        return offset

    def _pop_like_set(self, j: int) -> int:
        raise NotImplementedError  # patched per-run; see _twin_churn

    def free_range(self, offset: int, n_blocks: int) -> None:
        for b in range(offset, offset + n_blocks):
            assert b in self.allocated, "reference double free"
            self.allocated.discard(b)
        self._release(offset, n_blocks)

    def _release(self, offset: int, n_blocks: int) -> None:
        while n_blocks > 0:
            align = (
                (offset & -offset).bit_length() - 1 if offset else self.order
            )
            k = min(align, n_blocks.bit_length() - 1)
            self._insert(offset, k)
            offset += 1 << k
            n_blocks -= 1 << k

    def _insert(self, offset: int, k: int) -> None:
        while k < self.order:
            buddy = offset ^ (1 << k)
            if buddy not in self.free_sets[k]:
                break
            self.free_sets[k].discard(buddy)
            if buddy < offset:
                offset = buddy
            k += 1
        self.free_sets[k].add(offset)


def _assert_same_state(space: BuddySpace, reference: ReferenceBuddy) -> None:
    assert [set(s) for s in space._free_sets] == reference.free_sets
    assert space._order_mask == reference.order_mask
    assert space.allocated_blocks == len(reference.allocated)
    space.check_invariants()


def _twin_churn(order: int, seed: int, steps: int) -> None:
    """Random allocate/free churn on twin spaces, state-checked per op."""
    space = BuddySpace(order)
    reference = ReferenceBuddy(order)
    # Bind the reference's extent choice to the real space's set order so
    # both always pick the same offset (set.pop is deterministic for a
    # given insertion history, but opaque; peek it from the real space).
    reference._pop_like_set = (  # type: ignore[method-assign]
        lambda j: _pop_synced(space, reference, j)
    )
    rng = random.Random(seed)
    live: list[tuple[int, int]] = []  # (offset, n_blocks) allocations
    for _ in range(steps):
        if live and (rng.random() < 0.45 or space.free_blocks < 8):
            offset, n_blocks = live.pop(rng.randrange(len(live)))
            if n_blocks > 2 and rng.random() < 0.3:
                # Partial free: split the allocation into two frees.
                cut = rng.randrange(1, n_blocks)
                space.free_range(offset, cut)
                reference.free_range(offset, cut)
                _assert_same_state(space, reference)
                space.free_range(offset + cut, n_blocks - cut)
                reference.free_range(offset + cut, n_blocks - cut)
            else:
                space.free_range(offset, n_blocks)
                reference.free_range(offset, n_blocks)
        else:
            n_blocks = rng.randrange(1, min(24, space.free_blocks) + 1)
            if (1 << (space._order_mask.bit_length() - 1)) < n_blocks:
                continue
            got_space = space.allocate(n_blocks)
            got_ref = reference.allocate(n_blocks)
            assert got_space == got_ref
            live.append((got_space, n_blocks))
        _assert_same_state(space, reference)


def _pop_synced(space: BuddySpace, reference: ReferenceBuddy, j: int) -> int:
    # The real space pops first (the churn driver calls space.allocate
    # before reference.allocate), so the extent it removed is whichever
    # member of the reference's set is now gone.
    missing = reference.free_sets[j] - space._free_sets[j]
    assert len(missing) == 1, "reference desynced from space"
    offset = missing.pop()
    reference.free_sets[j].discard(offset)
    return offset


@pytest.mark.parametrize("seed", [7, 23, 101])
def test_randomized_churn_matches_reference(seed: int) -> None:
    _twin_churn(order=8, seed=seed, steps=300)


def test_full_depth_cascades_match_reference() -> None:
    """Worst-case cascades: single-block churn over a deep space.

    Freeing the single allocated block of an otherwise-free space
    coalesces through every order; allocating one block splits all the
    way back down.  Both directions must leave reference-identical
    state, with the order mask stored once per cascade.
    """
    space = BuddySpace(10)
    # Allocate every block singly (maximal split cascades).
    for expected in range(space.total_blocks):
        assert space.allocate(1) == expected
    assert space.free_blocks == 0
    assert space._order_mask == 0
    # Free them all back (maximal coalesce cascades, in an order that
    # exercises both left- and right-buddy merges).
    for offset in range(0, space.total_blocks, 2):
        space.free_range(offset, 1)
    for offset in range(space.total_blocks - 1, 0, -2):
        space.free_range(offset, 1)
        space.check_invariants()
    assert space.free_blocks == space.total_blocks
    assert space._order_mask == 1 << space.order
    assert space._free_sets[space.order] == {0}


def test_trim_release_cascade_mask_consistency() -> None:
    """Allocation trims (non-power-of-two sizes) release through the
    micro-batched ``_release_range``; the mask must match the lists
    after every mixed-size allocate/free step."""
    space = BuddySpace(9)
    offsets = [space.allocate(n) for n in (3, 5, 7, 11, 13, 17, 100)]
    space.check_invariants()
    for offset, n in zip(offsets, (3, 5, 7, 11, 13, 17, 100)):
        space.free_range(offset, n)
        expected = 0
        for k, extents in enumerate(space._free_sets):
            if extents:
                expected |= 1 << k
        assert space._order_mask == expected
        space.check_invariants()
    assert space.free_blocks == space.total_blocks
