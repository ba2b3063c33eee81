"""``SegmentIO.copy_staged`` against the stream objects it replaced.

The reference below is the older pair of stream objects, kept here as the
tests' yardstick: a reader that hands out the spliced byte sequence one
staging buffer at a time from a tagged piece list, and a writer that
empties each buffer into the fresh segments through ``write_pages`` (the
pool's refreshing write).  Only the bookkeeping that feeds ``seen`` was
added.  It pins the *I/O sequence* — which segment I/O calls are issued,
with which arguments, in which order, the writer's one-page read-back
included — which is the cost model of Section 3.5; ``copy_staged`` must
issue exactly that, and its direct writes must leave the pool as the
refreshing ones did.

Seed 1992 runs on traced environments and seed 2718 on untraced ones, so
the code on both sides of every ``tracer is None`` test is compared with
the reference; the untraced half compares everything but the trace.
"""

import dataclasses
import random

import pytest

from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.payload import (
    Payload,
    payload_bytes,
    payload_concat,
    payload_view,
    zeros,
)
from repro.exec.plan import MultiOp, append_op, delete_op, insert_op
from repro.obs.tracer import Tracer
from repro.segio import SegmentIO
from repro.starburst.manager import StarburstManager
from repro.workload.model import ObjectModel, issue
from tests.conftest import pattern_bytes

TRACED_SEED = 1992


# ----------------------------------------------------------------------
# The reference: a reader object and a writer object per copy
# ----------------------------------------------------------------------
class _TailReader:
    """Streams the concatenated source pieces of a staged copy.

    Reading is charged per (piece, staging-chunk) intersection: copying
    the long field "for all practical purposes ... can not be copied in
    two steps" (Section 4.4.3), so each staging chunk costs one read call
    per old segment range it overlaps.
    """

    def __init__(self, segio: SegmentIO, sources) -> None:
        self._segio = segio
        #: Ordered source pieces: ("old", page, offset, length) or
        #: ("mem", bytes).
        self._pieces: list[tuple] = [
            ("old", *piece) if isinstance(piece, tuple) else ("mem", piece)
            for piece in sources
        ]
        self._piece_index = 0
        self._piece_done = 0
        #: What the last ``read`` drew on: piece kinds, old segment reads.
        self.kinds: list[str] = []
        self.old_segments_read = 0

    def read(self, nbytes: int) -> Payload:
        chunks: list[Payload] = []
        got = 0
        self.kinds = []
        self.old_segments_read = 0
        while got < nbytes and self._piece_index < len(self._pieces):
            piece = self._pieces[self._piece_index]
            self.kinds.append(piece[0])
            if piece[0] == "mem":
                data = piece[1]
                piece_length = len(data)
                take = min(nbytes - got, piece_length - self._piece_done)
                chunks.append(data[self._piece_done : self._piece_done + take])
            else:
                _kind, page_id, offset, piece_length = piece
                take = min(nbytes - got, piece_length - self._piece_done)
                chunks.append(self._segio.read_boundary_unaligned(
                    page_id, offset + self._piece_done, take
                ))
                self.old_segments_read += 1
            self._piece_done += take
            got += take
            if self._piece_done == piece_length:
                self._piece_index += 1
                self._piece_done = 0
        return payload_concat(chunks)


class _TailWriter:
    """Streams staging chunks into the freshly allocated sink segments."""

    def __init__(self, segio: SegmentIO, sinks) -> None:
        self._segio = segio
        self._sinks = sinks
        self._index = 0
        self._written_in_segment = 0
        #: What the last ``write`` did: segments reached, pages read back.
        self.new_segments_written = 0
        self.read_backs = 0

    def write(self, data: Payload) -> None:
        view = payload_view(data)
        self.new_segments_written = 0
        self.read_backs = 0
        page_size = self._segio.config.page_size
        while view:
            page_id, nbytes = self._sinks[self._index]
            take = min(nbytes - self._written_in_segment, len(view))
            first_dirty = self._written_in_segment // page_size
            within = self._written_in_segment - first_dirty * page_size
            prefix: Payload = b""
            if within:
                page = self._segio.read_pages(page_id + first_dirty, 1)
                prefix = page[:within]
                self.read_backs += 1
            self._segio.write_pages(
                page_id + first_dirty,
                payload_concat([prefix, payload_bytes(view[:take])]),
            )
            self.new_segments_written += 1
            self._written_in_segment += take
            view = view[take:]
            if self._written_in_segment == nbytes:
                self._index += 1
                self._written_in_segment = 0


class ReaderAndWriter(SegmentIO):
    """Segment I/O with the staged copy done by the two stream objects.

    ``seen`` collects the situations the copies went through, so the
    test can insist that its random updates reached every one of them.
    ``manager`` is the field's owner: every old piece must lie inside
    one of its segments.
    """

    seen: set[str]
    manager: StarburstManager

    def copy_staged(self, sources, memory, sinks) -> None:
        segments = {
            segment.page_id: segment
            for oid in self.manager.oids()
            for segment in self.manager.descriptor_of(oid).segments
        }
        for piece in sources:
            if isinstance(piece, tuple):
                page_id, offset, nbytes = piece
                assert nbytes > 0
                assert offset + nbytes <= segments[page_id].used_bytes
        reader = _TailReader(self, sources)
        writer = _TailWriter(self, sinks)
        remaining = sum(nbytes for _page, nbytes in sinks)
        while remaining > 0:
            chunk = reader.read(min(memory, remaining))
            writer.write(chunk)
            remaining -= len(chunk)
            if reader.kinds == ["old", "mem", "old"]:
                self.seen.add("chunk of old bytes, inserted bytes, old bytes")
            if (
                reader.old_segments_read >= 2
                and writer.new_segments_written >= 2
            ):
                self.seen.add("chunk over two old and two new segments")
            if writer.read_backs:
                self.seen.add("write cursor mid-page: prefix read back")


# ----------------------------------------------------------------------
# Twin environments
# ----------------------------------------------------------------------
class Twin:
    """One manager on its own environment, traced or not."""

    def __init__(self, config, recorded: bool, traced: bool) -> None:
        self.tracer = Tracer() if traced else None
        self.traced = 0
        self.env = StorageEnvironment(
            config, record_leaf_data=recorded, tracer=self.tracer
        )
        self.manager = StarburstManager(self.env)

    def stored_bytes(self, oid: int) -> bytes:
        """The field's bytes as the disk holds them (no charge, no trace)."""
        page_size = self.env.config.page_size
        return b"".join(
            self.env.disk.peek_pages(
                segment.page_id, segment.used_pages(page_size)
            )[: segment.used_bytes]
            for segment in self.manager.descriptor_of(oid).segments
        )

    def observable(self) -> dict[str, object]:
        """All that the pool, the disk, the allocator or a trace could see."""
        env = self.env
        seen = {
            "io": dataclasses.replace(env.cost.stats),
            "pool": dataclasses.replace(env.pool.stats),
            "frames": [
                (page_id, dirty, pins)
                for page_id, pins, dirty in env.pool.frames()
            ],
            "data pages": env.areas.data.allocated_pages,
            "segments": [
                [dataclasses.replace(segment) for segment in
                 self.manager.descriptor_of(oid).segments]
                for oid in self.manager.oids()
            ],
        }
        if self.tracer is not None:
            events = self.tracer.records[self.traced:]
            self.traced += len(events)
            seen["events since the last look"] = events
        return seen


SITUATIONS = {
    "chunk of old bytes, inserted bytes, old bytes",
    "chunk over two old and two new segments",
    "write cursor mid-page: prefix read back",
    "delete reaches the field's end",
    "insert at a segment's first byte",
}
STAGING = {
    "one page": lambda page: page,
    "page + 1": lambda page: page + 1,
    "3 pages + 17": lambda page: 3 * page + 17,
    "8 pages": lambda page: 8 * page,
}


@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "phantom"])
@pytest.mark.parametrize("pool_frames", [1, 3, 12])
@pytest.mark.parametrize("staging", list(STAGING))
@pytest.mark.parametrize("page_size", [128, 256])
@pytest.mark.parametrize("seed", [TRACED_SEED, 2718])
def test_loop_matches_reader_and_writer(
    seed, page_size, staging, pool_frames, recorded
):
    """Seeded inserts, deletes and appends (and now and then a field laid
    out afresh at a known size) on a field of up to four segments: after
    every operation the two environments' ledgers, pools, allocators and
    (traced) traces are equal and, when bytes are recorded, the field's
    bytes on disk (and every eighth step, read through the manager) are
    those of the ``ObjectModel``; at the end the raw disk images are
    equal."""
    rng = random.Random(seed)
    config = small_page_config(
        page_size=page_size,
        buffer_pool_pages=pool_frames,
        staging_buffer_bytes=STAGING[staging](page_size),
    )
    traced = seed == TRACED_SEED
    new = Twin(config, recorded, traced)
    old = Twin(config, recorded, traced)
    reference = ReaderAndWriter(config, old.env.pool, record_leaf_data=recorded)
    reference.manager = old.manager
    seen = reference.seen = set()
    old.env.segio = reference
    twins = (new, old)
    salt = 0

    def payload(nbytes: int) -> Payload:
        nonlocal salt
        salt += 1
        return pattern_bytes(nbytes, salt) if recorded else zeros(nbytes)

    # The first append sizes the first segment: one page, so that the
    # doubling pattern puts several segments under a small field.
    first = payload(rng.randint(1, page_size))
    oids = [twin.manager.create() for twin in twins]
    for twin, oid in zip(twins, oids):
        twin.manager.append(oid, first)
    # The model keys the field by the first twin's oid.
    model = ObjectModel()
    model.create(oids[0], first)
    # Small enough to stay cheap, large enough for several staging chunks.
    low = 2 * page_size
    high = max(7 * page_size, 2 * config.staging_buffer_bytes + 4 * page_size)
    for step in range(300):
        size = model.size(oids[0])
        roll = rng.random()
        op = None
        if roll < 0.02:
            # A fresh field of known size: laid out through the staging
            # buffer in one go, then grown and shrunk like the first.
            data = payload(rng.randint(1, 8 * page_size))
            model.destroy(oids[0])
            for i, twin in enumerate(twins):
                twin.manager.destroy(oids[i])
                oids[i] = twin.manager.create(data)
            model.create(oids[0], data)
        elif roll < 0.12 or size < low:
            data = payload(rng.randint(1, 3 * page_size))
            op = append_op(data)
        elif roll < 0.55 and size < high:
            data = payload(rng.randint(1, 2 * page_size + 40))
            offset = rng.randrange(size)
            if rng.random() < 0.2:
                # The first byte of a segment other than the first.
                segments = new.manager.descriptor_of(oids[0]).segments
                offset = sum(
                    s.used_bytes
                    for s in segments[: rng.randrange(len(segments))]
                )
                if offset:
                    seen.add("insert at a segment's first byte")
            op = insert_op(offset, data)
        else:
            offset = rng.randrange(size)
            nbytes = rng.randint(1, min(size - offset, 4 * page_size))
            if rng.random() < 0.15:
                nbytes = size - offset
                seen.add("delete reaches the field's end")
            op = delete_op(offset, nbytes)
        if op is not None:
            for twin, oid in zip(twins, oids):
                issue(twin.manager, MultiOp(oid, op))
            model.apply(MultiOp(oids[0], op))
        modelled = model.read(oids[0], 0, model.size(oids[0]))
        for twin, oid in zip(twins, oids):
            assert twin.manager.size(oid) == len(modelled), f"step {step}"
            if recorded:
                assert twin.stored_bytes(oid) == modelled, f"step {step}"
                if modelled and step % 8 == 0:
                    # Now and then through the pool, as a client reads.
                    content = twin.manager.read(oid, 0, len(modelled))
                    assert content == modelled, f"step {step}"
        assert new.observable() == old.observable(), f"step {step}"
    assert new.env.disk.image() == old.env.disk.image()
    expected = set(SITUATIONS)
    if config.staging_buffer_bytes % page_size == 0:
        # Chunks and segments both end on page boundaries.
        expected.discard("write cursor mid-page: prefix read back")
    if config.staging_buffer_bytes == page_size:
        expected.discard("chunk over two old and two new segments")
    assert seen == expected
