"""Unit tests for the simulated disk."""

import random
import zlib

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.api import LargeObjectStore
from repro.atomic import journal as journal_module
from repro.atomic.journal import IntentJournal
from repro.blockbased import manager as blockbased_module
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import (
    AllocationError,
    ByteRangeError,
    ChecksumError,
    ContractViolationError,
    CrashError,
    InvalidArgumentError,
    IOFaultError,
)
from repro.core.payload import SizedPayload
from repro.disk.disk import (
    _CHUNK_BITS,
    _CHUNK_PAGES,
    PendingImage,
    SimulatedDisk,
)
from repro.disk.iomodel import CostModel
from repro.exec.plan import REPLACE, BatchOp, MultiOp, append_op, replace_op
from repro.faults import NEVER, FaultInjector, FaultPlan, at
from repro.shard.router import ShardedStore
from repro.starburst import descriptor as descriptor_module
from repro.tree import node as node_module
from tests.test_blockbased_manager import write_directory


@pytest.fixture
def disk():
    config = small_page_config(page_size=128)
    return SimulatedDisk(config, CostModel(config))


class TestReadWrite:
    def test_roundtrip(self, disk):
        data = bytes(range(128)) * 2
        disk.write_pages(10, 2, data)
        assert disk.read_pages(10, 2) == data

    def test_short_write_zero_fills_tail(self, disk):
        disk.write_pages(0, 2, b"abc")
        content = disk.read_pages(0, 2)
        assert content[:3] == b"abc"
        assert content[3:] == bytes(2 * 128 - 3)

    def test_unwritten_pages_read_as_zeros(self, disk):
        assert disk.read_pages(99, 3) == bytes(3 * 128)

    def test_oversized_write_rejected(self, disk):
        with pytest.raises(AllocationError):
            disk.write_pages(0, 1, bytes(129))

    @pytest.mark.parametrize("n_builders", [0, 2, 4])
    def test_a_list_of_the_wrong_length_is_refused_first(
        self, disk, n_builders
    ):
        """One builder per page or nothing: a list that is too long or too
        short is refused before the write is charged, the fault site is
        asked or any page changes."""
        disk.install_fault_site(_Flaky())
        before = (disk.cost.stats, disk.page_changes, disk.image(),
                  dict(disk._recorded))
        with pytest.raises(AllocationError, match="page builders"):
            disk.write_pages(5, 3, [lambda: bytes(128)] * n_builders)
        assert (disk.cost.stats, disk.page_changes, disk.image(),
                dict(disk._recorded)) == before
        assert disk.pages_in_use == 0

    def test_negative_page_rejected(self, disk):
        with pytest.raises(AllocationError):
            disk.read_pages(-1, 1)

    def test_zero_pages_rejected(self, disk):
        with pytest.raises(AllocationError):
            disk.read_pages(0, 0)


class TestCostAccounting:
    def test_read_charges_one_call(self, disk):
        disk.read_pages(0, 5)
        assert disk.cost.stats.read_calls == 1
        assert disk.cost.stats.pages_read == 5

    def test_write_charges_one_call(self, disk):
        disk.write_pages(0, 3, b"x")
        assert disk.cost.stats.write_calls == 1
        assert disk.cost.stats.pages_written == 3

    def test_peek_and_poke_are_free(self, disk):
        disk.poke_pages(0, b"hello")
        assert disk.peek_pages(0, 1)[:5] == b"hello"
        assert disk.cost.stats.io_calls == 0


class TestPhantomMode:
    def test_phantom_write_counts_but_discards(self, disk):
        disk.write_pages(0, 2, b"secret", record=False)
        assert disk.cost.stats.pages_written == 2
        assert disk.read_pages(0, 2) == bytes(2 * 128)

    def test_phantom_marks_page_written(self, disk):
        disk.write_pages(7, 1, b"x", record=False)
        assert disk.was_written(7)
        assert not disk.was_written(8)

    def test_phantom_over_recorded_forgets_content(self, disk):
        disk.write_pages(0, 1, b"real")
        disk.write_pages(0, 1, b"gone", record=False)
        assert disk.read_pages(0, 1) == bytes(128)


class TestDiscard:
    def test_discard_forgets_pages(self, disk):
        disk.write_pages(0, 2, b"ab" * 100)
        disk.discard_pages(0, 2)
        assert not disk.was_written(0)
        assert disk.pages_in_use == 0

    def test_discard_is_selective(self, disk):
        disk.write_pages(0, 3, b"x" * 300)
        disk.discard_pages(1, 1)
        assert disk.was_written(0)
        assert not disk.was_written(1)
        assert disk.was_written(2)


# ----------------------------------------------------------------------
# The run-granular page state against a page-granular model
# ----------------------------------------------------------------------
class ModelDisk:
    """The device as one plain ``page -> bytes | None`` dict.

    ``None`` is a page written in phantom mode.  ``clean`` keeps what
    each recorded page held when it was last written, so a page is
    corrupt exactly while its content differs from that.
    """

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self.pages: dict[int, bytes | None] = {}
        self.clean: dict[int, bytes] = {}

    def write(self, start, n_pages, data, record, limit=None):
        size = self.page_size
        stop = n_pages if limit is None else min(limit, n_pages)
        raw = bytes(data).ljust(n_pages * size, b"\x00")
        for i in range(stop):
            self.clean.pop(start + i, None)
            if record:
                image = raw[i * size : (i + 1) * size]
                self.pages[start + i] = self.clean[start + i] = image
            else:
                self.pages[start + i] = None

    def discard(self, start, n_pages):
        for page in range(start, start + n_pages):
            self.pages.pop(page, None)
            self.clean.pop(page, None)

    def flip(self, page, bit_index):
        content = bytearray(self.pages[page])
        byte_index, bit = divmod(bit_index % (len(content) * 8), 8)
        content[byte_index] ^= 1 << bit
        self.pages[page] = bytes(content)

    def corrupt(self) -> list[int]:
        return sorted(
            page for page, image in self.clean.items()
            if self.pages[page] != image
        )

    def recorded(self) -> list[int]:
        return [page for page, image in self.pages.items() if image is not None]


class _Tear:
    """A fault site that tears the next write after ``keep`` pages."""

    def __init__(self, keep: int) -> None:
        self.keep = keep

    def read_attempt(self, disk, start, n_pages, attempt):
        return None

    def write_attempt(self, disk, start, n_pages, record, attempt):
        return self.keep

    def after_write(self, disk, start, n_pages, record):
        raise AssertionError("a torn write never completes")


def assert_disk_matches(disk, model, probes):
    """Everything observable of ``disk`` agrees with ``model``; the runs
    in ``probes`` are read back through every read spelling."""
    size = model.page_size
    zero = bytes(size)
    assert disk.image() == model.pages
    assert disk.pages_in_use == len(model.pages)
    corrupt = model.corrupt()
    assert disk.verify_checksums() == corrupt
    # The bitmap over the recorded images mirrors the dict's keys.
    mirrored = {
        (chunk << _CHUNK_BITS) + bit
        for chunk, bits in disk._recorded.items()
        for bit in range(bits.bit_length())
        if bits >> bit & 1
    }
    assert mirrored == set(disk._pages) == set(model.recorded())
    for start, n_pages in probes:
        run = range(start, start + n_pages)
        for page in (start - 1, start, start + n_pages - 1, start + n_pages):
            assert disk.was_written(page) == (page in model.pages)
        expected = b"".join(model.pages.get(page) or zero for page in run)
        peeked = disk.peek_pages(start, n_pages)
        assert type(peeked) is bytes and peeked == expected
        if any(page in run for page in corrupt):
            with pytest.raises(ChecksumError):
                disk.read_pages(start, n_pages)
            with pytest.raises(ChecksumError):
                disk.read_page_views(start, n_pages)
            continue
        phantom = [
            page in model.pages and model.pages[page] is None for page in run
        ]
        whole = disk.read_pages(start, n_pages)
        assert type(whole) is (SizedPayload if all(phantom) else bytes)
        assert len(whole) == len(expected) and whole == expected
        views = disk.read_page_views(start, n_pages)
        assert [type(view) is SizedPayload for view in views] == phantom
        assert {len(view) for view in views} == {size}
        assert b"".join(map(bytes, views)) == expected


#: Chunk boundaries the runs are placed around: one in the meta range,
#: one in the data area (whose base is itself a boundary).
_BOUNDARIES = (3 * _CHUNK_PAGES, DATA_AREA_BASE + 3 * _CHUNK_PAGES)


def _random_run(rng, long_runs=True):
    """(start, n_pages) of 1-9,000 pages (1-300 without ``long_runs``)
    below, on or across a boundary."""
    n_pages = rng.choice(
        [rng.randint(1, 9), rng.randint(1, 9), rng.randint(10, 300),
         rng.randint(10, 300),
         rng.randint(3_000, 9_000) if long_runs else rng.randint(1, 9)]
    )
    boundary = rng.choice(_BOUNDARIES)
    start = boundary + rng.choice(
        [-n_pages - rng.randint(0, 5), -n_pages, -rng.randint(0, n_pages), 0,
         rng.randint(1, 40)]
    )
    return start, n_pages


@pytest.mark.parametrize("seed", [1992, 2718])
def test_run_state_matches_the_page_model(seed):
    rng = random.Random(seed)
    config = small_page_config(page_size=64)
    size = config.page_size
    disk = SimulatedDisk(config, CostModel(config))
    model = ModelDisk(size)
    probes = []
    for _step in range(120):
        start, n_pages = _random_run(rng)
        kind = rng.choice(
            ["bytes", "bytes", "sized", "phantom", "phantom", "poke",
             "discard", "discard", "retained", "torn", "corrupt"]
        )
        record = kind != "phantom" and rng.random() < 0.9
        if kind in ("bytes", "torn"):
            data = rng.randbytes(rng.randint(0, n_pages * size))
        else:
            data = SizedPayload(rng.randint(0, n_pages * size))
        if kind in ("bytes", "sized", "phantom"):
            disk.write_pages(start, n_pages, data, record=record)
            model.write(start, n_pages, data, record)
        elif kind == "torn":
            keep = rng.randint(0, n_pages)
            disk.install_fault_site(_Tear(keep))
            with pytest.raises(CrashError):
                disk.write_pages(start, n_pages, data, record=record)
            with pytest.raises(CrashError):     # halted until reopened
                disk.discard_pages(start, n_pages)
            disk.clear_fault_site()
            model.write(start, n_pages, data, record, limit=keep)
        elif kind == "poke":
            data = rng.randbytes(rng.randint(1, min(n_pages, 400) * size))
            disk.poke_pages(start, data)
            n_pages = -(-len(data) // size)
            model.write(start, n_pages, data, True)
        elif kind == "discard":
            disk.discard_pages(start, n_pages)
            model.discard(start, n_pages)
        elif kind == "retained":
            disk.retain_freed = True
            disk.discard_pages(start, n_pages)
            disk.retain_freed = False
        else:
            recorded = model.recorded()
            if recorded:
                page, bit = rng.choice(recorded), rng.randrange(size * 8)
                disk.corrupt_page(page, bit)
                model.flip(page, bit)
                start, n_pages = page - rng.randint(0, 2), 4
            for page in (start, start + n_pages):
                if model.pages.get(page) is None:
                    with pytest.raises(InvalidArgumentError):
                        disk.corrupt_page(page, 0)
        probes = probes[-2:] + [(start, n_pages)]
        assert_disk_matches(disk, model, probes)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("start", [_CHUNK_PAGES - 5, _CHUNK_PAGES - 2, _CHUNK_PAGES])
def test_torn_write_persists_exactly_its_prefix(record, start):
    """Every prefix of a run below, across and on a chunk boundary."""
    config = small_page_config(page_size=64)
    n_pages = 5
    for keep in range(n_pages + 1):
        disk = SimulatedDisk(config, CostModel(config))
        model = ModelDisk(config.page_size)
        for data in (b"\x07" * (n_pages * 64), SizedPayload(n_pages * 64)):
            earlier_record = not record
            disk.write_pages(start, n_pages, data, record=earlier_record)
            model.write(start, n_pages, data, earlier_record)
            disk.install_fault_site(_Tear(keep))
            with pytest.raises(CrashError):
                disk.write_pages(start, n_pages, b"\x09" * 200, record=record)
            disk.clear_fault_site()
            model.write(start, n_pages, b"\x09" * 200, record, limit=keep)
            assert_disk_matches(disk, model, [(start, n_pages)])


# ----------------------------------------------------------------------
# The checksum envelope against the eager envelope it replaced
# ----------------------------------------------------------------------
class EagerEnvelopeDisk(SimulatedDisk):
    """The envelope taken eagerly: a CRC of every page at every write
    and poke, checked for every recorded page on every accounted read.

    The reference for the disk's own envelope, which takes a CRC only in
    ``corrupt_page``.  Here ``corrupt_page`` flips the bit and leaves
    every CRC alone, so the disk's own map stays empty and only the
    checks below can raise.
    """

    def __init__(self, config, cost_model):
        super().__init__(config, cost_model)
        self.crcs = {}

    def _store_run(self, start, n_pages, data, record, limit=None):
        super()._store_run(start, n_pages, data, record, limit)
        self._take(start, n_pages if limit is None else min(limit, n_pages))

    def poke_pages(self, start, data):
        super().poke_pages(start, data)
        self._take(start, -(-len(data) // self.config.page_size))

    def _take(self, start, n_pages):
        for page_id in range(start, start + n_pages):
            image = self._pages.get(page_id)
            if image is None:
                self.crcs.pop(page_id, None)
            else:
                self.crcs[page_id] = zlib.crc32(image)

    def discard_pages(self, start, n_pages):
        super().discard_pages(start, n_pages)
        if not self.retain_freed:
            for page_id in range(start, start + n_pages):
                self.crcs.pop(page_id, None)

    def corrupt_page(self, page_id, bit_index):
        content = self._pages.get(page_id)
        if content is None:
            raise InvalidArgumentError(f"page {page_id} has no content")
        byte_index, bit = divmod(bit_index % (len(content) * 8), 8)
        corrupted = bytearray(content)
        corrupted[byte_index] ^= 1 << bit
        self._pages[page_id] = bytes(corrupted)

    def read_pages(self, start, n_pages):
        data = super().read_pages(start, n_pages)
        self._check(start, n_pages)
        return data

    def read_page_views(self, start, n_pages):
        views = super().read_page_views(start, n_pages)
        self._check(start, n_pages)
        return views

    def _check(self, start, n_pages):
        for page_id in range(start, start + n_pages):
            expected = self.crcs.get(page_id)
            if expected is not None and (
                zlib.crc32(self._pages[page_id]) != expected
            ):
                raise ChecksumError(page_id)

    def verify_checksums(self):
        return sorted(
            page_id for page_id, expected in self.crcs.items()
            if zlib.crc32(self._pages[page_id]) != expected
        )


def _checksum_failure(read, start, n_pages):
    """The page ``read`` raises :class:`ChecksumError` for, or None."""
    try:
        read(start, n_pages)
    except ChecksumError as exc:
        return exc.page_id
    return None


@pytest.mark.parametrize("seed", [1992, 2718])
def test_envelope_matches_the_eager_reference(seed):
    rng = random.Random(seed)
    config = small_page_config(page_size=64)
    size = config.page_size
    lazy = SimulatedDisk(config, CostModel(config))
    eager = EagerEnvelopeDisk(config, CostModel(config))
    data = rng.randbytes(8 * size)
    for disk in (lazy, eager):
        disk.write_pages(_BOUNDARIES[0] - 4, 8, data)
    recent = []
    flipped = []
    failures = 0
    seen = set()
    for step in range(300):
        # Long runs test the chunked bitmaps (above), not the envelope.
        start, n_pages = _random_run(rng, long_runs=False)
        kind = rng.choice(
            ["bytes", "bytes", "sized", "phantom", "poke", "discard",
             "retained", "torn", "injected", "corrupt", "corrupt", "twice"]
        )
        seen.add(kind)
        if kind in ("corrupt", "twice"):
            recorded = [
                page for page, image in lazy.image().items()
                if image is not None
            ]
            # Half the time a page flipped before, so flips accumulate.
            again = [page for page in flipped if page in recorded]
            page = rng.choice(
                again if again and rng.random() < 0.5 else recorded
            )
            bit = rng.randrange(size * 8)
            # "twice" flips one bit back: the page verifies again unless
            # an earlier flip left it corrupt.
            for _ in range(1 if kind == "corrupt" else 2):
                lazy.corrupt_page(page, bit)
                eager.corrupt_page(page, bit)
            flipped.append(page)
            start, n_pages = page - rng.randint(0, 2), 4
        elif kind == "poke":
            data = rng.randbytes(rng.randint(1, min(n_pages, 400) * size))
            for disk in (lazy, eager):
                disk.poke_pages(start, data)
        elif kind in ("discard", "retained"):
            for disk in (lazy, eager):
                disk.retain_freed = kind == "retained"
                disk.discard_pages(start, n_pages)
                disk.retain_freed = False
        else:
            data = (
                SizedPayload(rng.randint(0, n_pages * size))
                if kind == "sized"
                else rng.randbytes(rng.randint(0, n_pages * size))
            )
            # Torn and silently corrupted writes come from the real
            # injector: one torn prefix, or one bit of one page flipped
            # after the write (the same one on both disks: same seed).
            plan = FaultPlan(
                torn_writes=at(1) if kind == "torn" else NEVER,
                corruption=at(1) if kind == "injected" else NEVER,
                torn_prefix_pages=rng.randint(0, n_pages),
                seed=step,
            )
            for disk in (lazy, eager):
                with FaultInjector(disk, plan):
                    try:
                        disk.write_pages(
                            start, n_pages, data, record=kind != "phantom"
                        )
                    except CrashError:
                        assert kind == "torn"
            if kind == "injected":
                flipped += [
                    page for page in lazy.verify_checksums()
                    if start <= page < start + n_pages
                ]
        recent = recent[-2:] + [(start, n_pages)]
        assert lazy.verify_checksums() == eager.verify_checksums()
        for run in recent + [(page - 1, 3) for page in flipped[-4:]]:
            for name in ("read_pages", "read_page_views"):
                failed = _checksum_failure(getattr(lazy, name), *run)
                assert failed == _checksum_failure(
                    getattr(eager, name), *run
                ), (step, kind, name, run)
                failures += failed is not None
    # The history reached both verdicts and every kind of corruption.
    assert failures
    assert {"corrupt", "twice", "torn", "injected"} <= seen


# ----------------------------------------------------------------------
# Deferred images: a poke whose bytes are built when first read
# ----------------------------------------------------------------------
class TestDeferredImage:
    """``defer_image`` against ``poke_pages`` of the bytes it builds."""

    PAGE = 7  # between a recorded page (6) and a phantom one (8)

    @staticmethod
    def twins(config, earlier=None):
        """A disk that defers ``PAGE``'s image and one that pokes it,
        after the same history; the builder's calls are counted."""
        image = bytes(range(64)) * 2
        calls = []

        def build():
            calls.append(1)
            return image

        disks = []
        for _ in range(2):
            disk = SimulatedDisk(config, CostModel(config))
            disk.write_pages(6, 1, b"\x05" * 128)
            disk.write_pages(8, 1, b"", record=False)
            if earlier is not None:
                disk.write_pages(TestDeferredImage.PAGE, 1, b"\x01" * 128,
                                 record=earlier)
            disks.append(disk)
        deferred, poked = disks
        deferred.defer_image(TestDeferredImage.PAGE, build)
        poked.poke_pages(TestDeferredImage.PAGE, image)
        # With the checks on, the deferral builds once itself.
        assert calls == ([1] if deferred.checks else [])
        calls.clear()
        return deferred, poked, calls

    @pytest.mark.parametrize("earlier", [None, True, False])
    @pytest.mark.parametrize(
        "read", ["peek_pages", "read_pages", "read_page_views", "image"]
    )
    def test_reads_back_as_a_poke(self, disk, read, earlier):
        deferred, poked, calls = self.twins(disk.config, earlier)
        assert isinstance(deferred._pages[self.PAGE], PendingImage)
        for d in (deferred, poked):
            assert d.was_written(self.PAGE)
        assert deferred.pages_in_use == poked.pages_in_use
        assert deferred._recorded == poked._recorded
        assert deferred._phantom == poked._phantom
        if read == "image":
            assert deferred.image() == poked.image()
        else:
            got = getattr(deferred, read)(5, 5)
            assert got == getattr(poked, read)(5, 5)
        assert calls == [1]
        # Built once, stored in place: the next read does not build.
        assert deferred.peek_pages(self.PAGE, 1) == poked.peek_pages(
            self.PAGE, 1
        )
        assert type(deferred._pages[self.PAGE]) is bytes
        assert calls == [1]
        assert deferred.cost.stats == poked.cost.stats

    @pytest.mark.parametrize(
        "replace", ["poke", "write", "write-phantom", "discard"]
    )
    def test_replaced_before_read_is_never_built(self, disk, replace):
        deferred, poked, calls = self.twins(disk.config)
        for d in (deferred, poked):
            if replace == "poke":
                d.poke_pages(self.PAGE, b"\x09" * 3)
            elif replace == "discard":
                d.discard_pages(self.PAGE, 2)
            else:
                d.write_pages(self.PAGE - 1, 2, b"\x09" * 200,
                              record=replace == "write")
        assert deferred.image() == poked.image()
        assert deferred.peek_pages(5, 5) == poked.peek_pages(5, 5)
        assert deferred.pages_in_use == poked.pages_in_use
        assert deferred._recorded == poked._recorded
        assert calls == []

    def test_halted_disk_refuses_the_deferral(self, disk):
        disk.install_fault_site(_Tear(0))
        with pytest.raises(CrashError):
            disk.write_pages(3, 1, b"x")
        with pytest.raises(CrashError):
            disk.defer_image(self.PAGE, lambda: bytes(128))
        assert not disk.was_written(self.PAGE)

    def test_corrupting_a_pending_page_corrupts_its_built_image(self, disk):
        deferred, poked, calls = self.twins(disk.config)
        for d in (deferred, poked):
            d.corrupt_page(self.PAGE, 9)
        assert calls == [1]
        assert deferred.image() == poked.image()
        assert deferred.verify_checksums() == [self.PAGE]
        with pytest.raises(ChecksumError):
            deferred.read_pages(self.PAGE, 1)
        # A later deferral is a write: it drops the CRC, like a poke.
        deferred.defer_image(self.PAGE, lambda: bytes(128))
        assert deferred.verify_checksums() == []
        assert deferred.read_pages(self.PAGE, 1) == bytes(128)

    def test_a_build_that_misses_its_expected_bytes_raises(self, checked,
                                                           disk):
        """With the checks on, the read's build must match the bytes the
        deferral built."""
        image = bytearray(128)
        disk.defer_image(self.PAGE, lambda: bytes(image))
        image[0] = 1
        with pytest.raises(ContractViolationError):
            disk.peek_pages(self.PAGE, 1)


class _Flaky:
    """A fault site whose every first write attempt fails transiently."""

    def read_attempt(self, disk, start, n_pages, attempt):
        return None

    def write_attempt(self, disk, start, n_pages, record, attempt):
        if attempt == 0:
            raise IOFaultError("flaky write", transient=True)
        return None

    def after_write(self, disk, start, n_pages, record):
        return None


class TestPendingWrite:
    """A charged ``write_pages`` of pending images (a shadowed index
    flush) against ``write_pages`` of the bytes they build."""

    START = 7  # after a recorded page (6), before a phantom one

    @staticmethod
    def twins(config, n_pages, site=None):
        """A disk written with one builder per page and one written with
        their bytes, after the same history; the builds on read are
        counted.  A ``site`` (a fault-site class) is installed on both
        for the write; a crash it raises is left to the caller."""
        start = TestPendingWrite.START
        images = [bytes([i + 1]) * 64 + bytes(range(64))
                  for i in range(n_pages)]
        calls: list[int] = []

        def pending(i):
            def build():
                calls.append(start + i)
                return images[i]
            return build

        disks = []
        for data in ([pending(i) for i in range(n_pages)], b"".join(images)):
            disk = SimulatedDisk(config, CostModel(config))
            disk.write_pages(start - 1, 1, b"\x05" * 128)
            disk.write_pages(start + n_pages, 1, b"", record=False)
            if site is not None:
                disk.install_fault_site(site())
            try:
                disk.write_pages(start, n_pages, data)
            except CrashError:
                pass
            disks.append(disk)
        lazy, eager = disks
        assert lazy.cost.stats == eager.cost.stats
        # With the checks on, each page stored is built once as written.
        assert calls == ([
            page for page in range(start, start + n_pages)
            if lazy.was_written(page)
        ] if lazy.checks else [])
        calls.clear()
        return lazy, eager, calls

    @staticmethod
    def assert_same(lazy, eager):
        assert lazy.image() == eager.image()
        assert lazy.pages_in_use == eager.pages_in_use
        assert lazy.cost.stats == eager.cost.stats

    @pytest.mark.parametrize("n_pages", [1, 3])
    @pytest.mark.parametrize("read", [
        "peek_pages", "read_pages", "read_page_views", "unbuilt", "image",
    ])
    def test_reads_back_as_its_bytes(self, disk, n_pages, read):
        lazy, eager, calls = self.twins(disk.config, n_pages)
        run = (self.START - 2, n_pages + 4)
        if read == "image":
            assert lazy.image() == eager.image()
        elif read == "unbuilt":
            # One charged read that builds nothing; its builder builds once.
            got = lazy.read_pages(self.START, 1, build=False)
            expected = eager.read_pages(self.START, 1, build=False)
            assert callable(got) and calls == []
            assert lazy.cost.stats == eager.cost.stats
            assert lazy.cost.stats.read_calls == 1
            assert got() == got() == expected
            assert calls == [self.START]
            self.assert_same(lazy, eager)
            return
        else:
            assert getattr(lazy, read)(*run) == getattr(eager, read)(*run)
        assert sorted(calls) == list(range(self.START, self.START + n_pages))
        # Built once, stored in place: later reads build nothing.
        assert lazy.peek_pages(*run) == eager.peek_pages(*run)
        assert len(calls) == n_pages
        self.assert_same(lazy, eager)

    @pytest.mark.parametrize("n_pages", [1, 3])
    @pytest.mark.parametrize(
        "replace", ["write", "write-phantom", "poke", "defer", "discard"]
    )
    def test_replaced_or_freed_before_read_is_never_built(
        self, disk, n_pages, replace
    ):
        lazy, eager, calls = self.twins(disk.config, n_pages)
        for d in (lazy, eager):
            if replace == "poke":
                d.poke_pages(self.START, b"\x09" * 3)
            elif replace == "defer":
                d.defer_image(self.START, lambda: b"\x0a" * 128)
            elif replace == "discard":
                d.discard_pages(self.START, n_pages)
            else:
                d.write_pages(self.START, n_pages, b"\x09" * 100 * n_pages,
                              record=replace == "write")
        assert calls == []
        self.assert_same(lazy, eager)

    @pytest.mark.parametrize("n_pages", [1, 3])
    def test_corrupting_a_pending_page_corrupts_its_built_image(
        self, disk, n_pages
    ):
        lazy, eager, calls = self.twins(disk.config, n_pages)
        last = self.START + n_pages - 1
        for d in (lazy, eager):
            d.corrupt_page(last, 9)
        assert calls == [last]
        assert lazy.verify_checksums() == eager.verify_checksums() == [last]
        for d in (lazy, eager):
            with pytest.raises(ChecksumError):
                d.read_pages(self.START, n_pages)
        self.assert_same(lazy, eager)

    def test_a_torn_write_persists_a_pending_prefix(self, disk):
        lazy, eager, calls = self.twins(disk.config, 3, site=lambda: _Tear(2))
        assert lazy.halted and eager.halted
        assert calls == []
        for d in (lazy, eager):
            d.clear_fault_site()
        assert not lazy.was_written(self.START + 2)
        self.assert_same(lazy, eager)
        assert calls == [self.START, self.START + 1]

    @pytest.mark.parametrize("n_pages", [1, 3])
    def test_a_retried_write_stores_the_images_once(self, disk, n_pages):
        lazy, eager, calls = self.twins(disk.config, n_pages, site=_Flaky)
        assert lazy.cost.stats.retries == 1
        self.assert_same(lazy, eager)
        assert len(calls) == n_pages

    def test_a_build_that_misses_its_expected_bytes_raises(self, checked,
                                                           disk):
        second = bytearray(128)
        disk.write_pages(self.START, 2, [
            lambda: bytes(128), lambda: bytes(second),
        ])
        second[0] = 1
        assert disk.peek_pages(self.START, 1) == bytes(128)
        with pytest.raises(ContractViolationError):
            disk.read_pages(self.START, 2)


# ----------------------------------------------------------------------
# Commit-point images of the managers
# ----------------------------------------------------------------------
# ESM and EOS commit their root page, Starburst its long-field
# descriptor page, at the batch boundary through ``commit_image``: the
# disk keeps a builder over a snapshot taken at the commit.  What happens
# to the object in memory after that commit, without another commit,
# must not reach the image; and in the streams the benchmark runs, no
# image is read before the next commit replaces it.
MANAGED = ("esm", "eos", "starburst")


def _pattern(n: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + salt * 7 + 5) % 251 for i in range(n))


def _committed(scheme: str) -> tuple[LargeObjectStore, int, PendingImage]:
    """A store, the id of one object it committed, and the pending image
    that commit deferred for its root (ESM, EOS) or descriptor page."""
    store = LargeObjectStore(
        scheme, small_page_config(), leaf_pages=2, threshold_pages=2
    )
    page = store.config.page_size
    oid = store.create(_pattern(6 * page + 37))
    pending = store.env.disk._pages[oid]
    assert isinstance(pending, PendingImage)
    return store, oid, pending


@pytest.mark.parametrize("scheme", MANAGED)
def test_a_failed_batch_leaves_the_committed_image(scheme, checked):
    """A batch that raises after its first op (the shape of the refusal
    row ``atomic-batch-with-a-range-past-the-end``) changes the object
    in memory and commits nothing: the page still reads as the disk
    built it at the last commit."""
    store, oid, pending = _committed(scheme)
    written = pending.expect
    assert written is not None and len(written) == store.config.page_size
    page = store.config.page_size
    with pytest.raises(ByteRangeError):
        store.submit_ops(oid, [
            append_op(_pattern(3 * page + 11, salt=1)),
            replace_op(20 * page, b"Y" * 10),
        ])
    disk = store.env.disk
    assert disk._pages[oid] is pending
    assert disk.peek_pages(oid, 1) == written
    assert type(disk._pages[oid]) is bytes


@pytest.mark.parametrize("scheme", MANAGED)
def test_deferred_image_checks_its_premise(scheme, checked):
    """Under ``REPRO_CHECKS=1`` a build that differs from the one the
    disk made at the commit raises when read."""
    store, oid, pending = _committed(scheme)
    disk = store.env.disk
    disk._pages[oid] = pending._replace(
        build=lambda: bytes(reversed(pending.build()))
    )
    with pytest.raises(ContractViolationError):
        disk.peek_pages(oid, 1)


# Each writer of a pending image, as (module, packer, write): ``packer`` is
# the module function that packs its images, and ``write()`` makes the write
# on a fresh store and returns (disk, first page, pages, change), where
# ``change()`` alters the live state the write took its snapshot of.
def _write_root():
    store = LargeObjectStore(
        "esm", small_page_config(), leaf_pages=2, threshold_pages=2
    )
    oid = store.create(_pattern(6 * store.config.page_size + 37))
    root = store.manager.tree_of(oid).locate(0).path[0][0]

    def change():
        root.cums[-1] += 1
        root.refs[-1] += 1
    return store.env.disk, oid, 1, change


def _write_non_root():
    store = LargeObjectStore(
        "esm", small_page_config(), leaf_pages=2, threshold_pages=2
    )
    oid = store.create(SizedPayload(200 * store.config.page_size + 5))
    path = store.manager.tree_of(oid).locate(0).path
    assert len(path) >= 2
    node = path[-1][0]

    def change():
        node.cums[-1] += 1
        node.refs[-1] += 1
    return store.env.disk, node.page_id, 1, change


def _write_descriptor():
    store = LargeObjectStore("starburst", small_page_config())
    oid = store.create()
    for n in range(4):
        store.append(oid, _pattern(3 * store.config.page_size, salt=n))
    segments = store.manager.descriptor_of(oid).segments
    assert len(segments) >= 2

    def change():
        segments.reverse()
    return store.env.disk, oid, 1, change


def _write_prepare():
    env = StorageEnvironment(small_page_config())
    journal = IntentJournal.reserve(env)
    participants = [0, 1]
    mops = [MultiOp(7, append_op(_pattern(2 * env.config.page_size)))]
    record = journal.encode_prepare(1, 0, 0, participants, mops)
    assert journal.write_prepare(record) == 3

    def change():
        participants.append(2)
        mops.append(MultiOp(8, append_op(b"late")))
    return env.disk, journal.base_page, 3, change


WRITERS = {
    "root": (node_module, "_image", _write_root),
    "non-root": (node_module, "_image", _write_non_root),
    "descriptor": (descriptor_module, "_image", _write_descriptor),
    "prepare": (journal_module, "_frame", _write_prepare),
    "directory": (blockbased_module, "_image", write_directory),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_pending_page_reads_back_as_it_was_written(
    checked, monkeypatch, writer
):
    """Snapshot isolation of every writer of a pending image: after the
    write, a change to the live node, descriptor or ops it wrote from
    does not reach the page.  A twin store read straight after the same
    write gives the bytes; with the checks on the disk also built each
    page at the write, and the read must build every page again from
    the snapshot (a build cached at the write would only compare the
    write-time bytes with themselves)."""
    module, name, write = WRITERS[writer]
    packs: list[int] = []
    original = getattr(module, name)

    def counting(*args):
        packs.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    twin, start, n_pages, _change = write()
    expected = twin.peek_pages(start, n_pages)
    disk, start, n_pages, change = write()
    pending = [disk._pages[page] for page in range(start, start + n_pages)]
    assert all(isinstance(image, PendingImage) and image.expect is not None
               for image in pending)
    change()
    before = len(packs)
    assert disk.peek_pages(start, n_pages) == expected
    assert len(packs) - before == n_pages


@pytest.fixture
def builds(monkeypatch):
    """Page ids whose pending image was built, in order."""
    built: list[int] = []
    original = SimulatedDisk._built

    def counting(self, page_id):
        if isinstance(self._pages[page_id], PendingImage):
            built.append(page_id)
        return original(self, page_id)

    monkeypatch.setattr(SimulatedDisk, "_built", counting)
    return built


@pytest.mark.parametrize("scheme", MANAGED)
def test_per_op_appends_build_no_image(scheme, builds):
    """``seq_build``'s shape: every append is a batch of one, and each
    commit replaces the image the last one deferred, unread."""
    store = LargeObjectStore(
        scheme, small_page_config(), leaf_pages=2, threshold_pages=2
    )
    oid = store.create()
    for n in range(300):
        store.append(oid, SizedPayload(137 + n % 7 * 50))
    assert isinstance(store.env.disk._pages[oid], PendingImage)
    assert builds == []


@pytest.mark.parametrize("scheme", ["esm", "eos"])
def test_tree_updates_build_no_image(scheme, builds):
    """``update_mix_tree``'s shape on a height-2 tree: each insert or
    delete flushes its shadowed leaf parent as a pending image, and the
    next descent's pool miss on that page leaves it unbuilt."""
    store = LargeObjectStore(
        scheme, small_page_config(), leaf_pages=2, threshold_pages=2
    )
    page = store.config.page_size
    oid = store.create(SizedPayload(200 * page + 5))
    rng = random.Random(44)
    reads = store.stats.read_calls
    for _ in range(200):
        size = store.size(oid)
        roll = rng.random()
        if roll < 0.4:
            store.read(oid, rng.randrange(size - 300), 300)
        elif roll < 0.7 or size < 190 * page:
            store.insert(oid, rng.randrange(size), SizedPayload(
                rng.randint(50, 400)
            ))
        else:
            store.delete(oid, rng.randrange(size - 400), rng.randint(50, 400))
    assert store.manager.tree_of(oid).height >= 2
    pending = [
        page_id for page_id, content in store.env.disk._pages.items()
        if isinstance(content, PendingImage) and page_id != oid
    ]
    assert pending and store.stats.read_calls > reads
    assert builds == []


@pytest.mark.parametrize("scheme", MANAGED)
def test_atomic_multi_shard_batches_build_no_image(scheme, builds):
    """``atomic_multi_shard``'s shape: replaces over four shards under
    two-phase commit, whose held commits defer the images too."""
    store = ShardedStore(
        scheme, small_page_config(), shards=4, leaf_pages=2,
        threshold_pages=2, atomic=True,
    )
    oids = [store.create(SizedPayload(5_000)) for _ in range(8)]
    for step in range(40):
        store.submit_many([
            MultiOp(oid, BatchOp(REPLACE, (step * 97 + i * 13) % 4_900, 0,
                                 SizedPayload(100)))
            for i, oid in enumerate(oids)
        ])
    assert builds == []
