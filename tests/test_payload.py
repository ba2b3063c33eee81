"""Tests for repro.core.payload and the phantom/recorded invariance.

Two layers of pinning:

* :class:`SizedPayload` behaves exactly like the all-zero ``bytes`` it
  stands for (length, slicing, concatenation, equality, padding);
* running the same operation sequence with ``record_data=True`` (real
  content) and ``record_data=False`` (length-only payloads) produces
  bit-identical :class:`~repro.disk.iomodel.IOStats`, pool counters, and
  report fields — the paper's §4.1 accounting trick, now enforced.
"""

import dataclasses

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.core.errors import InvalidArgumentError
from repro.core.payload import (
    SizedPayload,
    payload_bytes,
    payload_concat,
    payload_view,
    zeros,
)
from tests.conftest import fingerprint

PAGE = PAPER_CONFIG.page_size

SCHEMES = ("esm", "starburst", "eos")


# ----------------------------------------------------------------------
# SizedPayload semantics
# ----------------------------------------------------------------------
class TestSizedPayload:
    def test_length_and_truthiness(self):
        assert len(SizedPayload(17)) == 17
        assert SizedPayload(1)
        assert not SizedPayload(0)

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SizedPayload(-1)

    def test_slicing_is_lazy_and_clamped(self):
        p = SizedPayload(100)
        sliced = p[10:40]
        assert isinstance(sliced, SizedPayload)
        assert len(sliced) == 30
        assert len(p[90:500]) == 10
        assert len(p[50:10]) == 0
        with pytest.raises(InvalidArgumentError):
            p[::2]

    @pytest.mark.parametrize("length", [0, 1, 7, 100])
    def test_slice_lengths_match_bytes(self, length):
        """Negative, open, out-of-range and reversed bounds clamp as
        ``bytes`` clamps them; a step other than 1 is refused."""
        p, real = SizedPayload(length), bytes(length)
        bounds = (None, 0, 3, -3, length, length + 5, -length - 5)
        for start in bounds:
            for stop in bounds:
                sliced = p[start:stop]
                assert type(sliced) is SizedPayload
                assert len(sliced) == len(real[start:stop]), (start, stop)
                assert p[start:stop:1] == real[start:stop]
        for step in (-1, 2):
            with pytest.raises(InvalidArgumentError, match="step 1"):
                p[::step]
        with pytest.raises(ValueError):  # as ``bytes`` refuses it
            p[::0]

    def test_indexing_and_iteration_yield_zeros(self):
        p = SizedPayload(3)
        assert p[0] == 0 and p[-1] == 0
        with pytest.raises(IndexError):
            p[3]
        assert list(p) == [0, 0, 0]

    def test_concatenation(self):
        lazy = SizedPayload(4) + SizedPayload(6)
        assert isinstance(lazy, SizedPayload) and len(lazy) == 10
        assert SizedPayload(2) + b"ab" == b"\x00\x00ab"
        assert b"ab" + SizedPayload(2) == b"ab\x00\x00"
        # Empty real parts never force materialization.
        assert isinstance(SizedPayload(5) + b"", SizedPayload)
        assert isinstance(b"" + SizedPayload(5), SizedPayload)

    def test_equality_matches_zero_bytes(self):
        assert SizedPayload(4) == b"\x00" * 4
        assert SizedPayload(4) == SizedPayload(4)
        assert SizedPayload(4) != b"\x00\x00\x00\x01"
        assert SizedPayload(4) != b"\x00" * 5

    def test_materialization_and_ljust(self):
        assert bytes(SizedPayload(8)) == b"\x00" * 8
        assert SizedPayload(8).tobytes() == b"\x00" * 8
        padded = SizedPayload(3).ljust(9)
        assert isinstance(padded, SizedPayload) and len(padded) == 9
        assert len(SizedPayload(9).ljust(3)) == 9
        with pytest.raises(InvalidArgumentError):
            SizedPayload(3).ljust(9, b"x")

    def test_helpers(self):
        assert isinstance(zeros(5), SizedPayload)
        lazy = payload_concat([SizedPayload(3), SizedPayload(4), b""])
        assert isinstance(lazy, SizedPayload) and len(lazy) == 7
        mixed = payload_concat([SizedPayload(2), b"xy"])
        assert mixed == b"\x00\x00xy"
        view = payload_view(b"abcd")
        assert isinstance(view, memoryview)
        assert payload_view(SizedPayload(4)) is not None
        assert payload_bytes(view[1:3]) == b"bc"
        sized = SizedPayload(4)
        assert payload_bytes(sized) is sized


# ----------------------------------------------------------------------
# Phantom/recorded invariance
# ----------------------------------------------------------------------
def _pattern(n, salt=0):
    return bytes((salt * 31 + i) % 251 for i in range(n))


#: Read ranges deliberately not aligned to pages or leaf boundaries:
#: (offset, nbytes) pairs crossing page edges, leaf edges, and the tail.
UNALIGNED_RANGES = (
    (1, PAGE - 2),
    (PAGE - 3, 7),
    (PAGE + 5, 3 * PAGE),
    (4 * PAGE - 1, PAGE + 2),
    (0, 5 * PAGE + 11),
)


def _assert_copy_is_long(sources, memory, sinks, page):
    """The staged copy spans at least three chunks and reads at least two
    old segments, and some chunk ends mid-page inside a sink, so the next
    one starts with a read-back."""
    total = sum(nbytes for _page, nbytes in sinks)
    assert -(-total // memory) >= 3
    assert len({piece[0] for piece in sources if isinstance(piece, tuple)}) >= 2
    sink_starts = [0]
    for _page, nbytes in sinks:
        sink_starts.append(sink_starts[-1] + nbytes)
    assert any(
        (end - max(s for s in sink_starts if s <= end)) % page
        for end in range(memory, total, memory)
    )


def _run_sequence(scheme, record_data):
    """One scripted op mix; returns (store, report fields).

    The recorded run writes real patterned content, the phantom run
    length-only payloads — every payload pair agrees on length, which is
    all the cost model may depend on.
    """
    def payload(n, salt=0):
        return _pattern(n, salt) if record_data else SizedPayload(n)

    store = LargeObjectStore(
        scheme,
        PAPER_CONFIG,
        leaf_pages=4,
        threshold_pages=4,
        record_data=record_data,
    )
    oid = store.create()
    for index in range(12):
        store.append(oid, payload(30_000, salt=index))
    store.insert(oid, 70_001, payload(9_999, salt=91))
    store.delete(oid, 123_456, 4_321)
    store.replace(oid, 200_000, payload(5_000, salt=92))
    for offset, nbytes in UNALIGNED_RANGES:
        result = store.read(oid, offset, nbytes)
        assert len(result) == nbytes
    report = {
        "size": store.size(oid),
        "utilization": store.utilization(oid),
        "allocated_pages": store.allocated_pages(oid),
        "elapsed_ms": store.elapsed_ms(),
    }
    return store, report


class TestPhantomInvariance:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stats_identical_across_record_modes(self, scheme):
        """The ledger, all four pool counters, the frames' order, pins
        and dirty flags, and the areas agree; only contents may not."""
        real, real_report = _run_sequence(scheme, True)
        phantom, phantom_report = _run_sequence(scheme, False)
        assert fingerprint(real, contents=False) == fingerprint(
            phantom, contents=False
        )
        assert real_report == phantom_report

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_starburst_staged_tail_copy(self, op):
        """A tail copy of three or more staging chunks from two or more
        old segments, whose sink cursor stops mid-page, charges alike in
        both modes; the phantom one reads back as zeros."""
        config = small_page_config(staging_buffer_bytes=3 * 128 + 17)
        page = config.page_size
        outcomes = []
        for record_data in (True, False):
            store = LargeObjectStore("starburst", config,
                                     record_data=record_data)
            content = _pattern(14 * page + 40)
            oid = store.create()
            for start, end in ((0, page), (page, len(content))):
                piece = content[start:end]
                store.append(
                    oid, piece if record_data else SizedPayload(len(piece))
                )
            copies = []
            copy_staged = store.env.segio.copy_staged

            def spy(sources, memory, sinks):
                copies.append((sources, memory, sinks))
                copy_staged(sources, memory, sinks)

            store.env.segio.copy_staged = spy
            if op == "insert":
                data = _pattern(50, salt=7)
                store.insert(
                    oid, 10, data if record_data else SizedPayload(50)
                )
                expected = content[:10] + data + content[10:]
            else:
                store.delete(oid, 10, 50)
                expected = content[:10] + content[60:]
            (sources, memory, sinks), = copies
            _assert_copy_is_long(sources, memory, sinks, page)
            result = store.read(oid, 0, len(expected))
            assert result == (expected if record_data else bytes(len(expected)))
            outcomes.append(fingerprint(store, contents=False))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("offset,nbytes", UNALIGNED_RANGES)
    def test_read_boundary_unaligned(self, scheme, offset, nbytes):
        """Unaligned reads cost the same and agree on content length in
        both modes; recorded mode returns the very bytes written."""
        def run(record_data):
            store = LargeObjectStore(
                scheme,
                PAPER_CONFIG,
                leaf_pages=4,
                threshold_pages=4,
                record_data=record_data,
            )
            content = _pattern(6 * PAGE + 123)
            data = content if record_data else SizedPayload(len(content))
            oid = store.create(data)
            before = store.snapshot()
            result = store.read(oid, offset, nbytes)
            return content, bytes(result), store.stats.delta(before)

        content, recorded, real_delta = run(True)
        _, phantom, phantom_delta = run(False)
        assert recorded == content[offset : offset + nbytes]
        assert phantom == bytes(nbytes)
        assert dataclasses.asdict(real_delta) == dataclasses.asdict(
            phantom_delta
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_recorded_mode_roundtrips_sized_payloads(self, scheme):
        """A SizedPayload written in recorded mode reads back as zeros —
        the payload type never changes what lands on the disk image."""
        store = LargeObjectStore(scheme, PAPER_CONFIG, record_data=True)
        oid = store.create(SizedPayload(2 * PAGE + 7))
        store.append(oid, _pattern(100, salt=3))
        assert bytes(store.read(oid, 0, 2 * PAGE + 7)) == bytes(2 * PAGE + 7)
        assert bytes(store.read(oid, 2 * PAGE + 7, 100)) == _pattern(
            100, salt=3
        )
