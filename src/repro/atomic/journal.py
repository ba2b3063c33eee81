"""The per-shard intent journal: reserved, checksummed, charged pages.

Each shard of an atomic :class:`~repro.shard.router.ShardedStore`
reserves a fixed run of ``journal_pages`` pages from its meta area at
construction time — the very first allocation, so the region's page ids
are deterministic.  The region is laid out as::

    [0 .. J-3]  PREPARE / CLEAN record area (one multi-page record)
    [J-2]       APPLIED marker (single page, atomic write)
    [J-1]       DECISION page (used only when this shard coordinates)

Records are framed with a magic string, a record kind, the batch id,
and a CRC-32 over the whole frame, and written zero-padded to whole
pages (the bytes a shorter write would leave); a torn multi-page
PREPARE write persists only a prefix, fails the CRC, and therefore
*never happened* — which is exactly the durability edge two-phase
commit needs.  All journal writes go through the buffer pool's
sanctioned :meth:`~repro.buffer.pool.BufferPool.write_run` path: they
are charged physical writes, carry the disk's page-checksum envelope,
and are intercepted by an armed fault injector like any other I/O.
A record is sized by arithmetic and handed to the disk as one builder
per page, framed only when the page is first read.
Journal *reads* during recovery use ``disk.peek_pages`` — recovery works
from the image alone and charges nothing for the forensic scan.

Marker validity is keyed by batch id: an APPLIED or DECISION page left
over from an earlier batch names that older batch and is ignored when
the PREPARE area holds a newer record, so the happy path never pays
write I/O to blank stale markers.
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Callable, NamedTuple, Sequence

from repro.core.env import StorageEnvironment
from repro.core.errors import InvalidArgumentError
from repro.core.payload import Payload, SizedPayload
from repro.disk.disk import SimulatedDisk
from repro.exec.plan import APPEND, DELETE, INSERT, READ, REPLACE, BatchOp, MultiOp

#: Journal record kinds.
PREPARE = 1
DECISION = 2
APPLIED = 3
CLEAN = 4

_KINDS = frozenset({PREPARE, DECISION, APPLIED, CLEAN})

#: Frame: magic, kind, batch id, coordinator shard, this shard,
#: payload length, CRC-32 (computed with the CRC field zeroed).
_MAGIC = b"RJL1"
_HEADER = struct.Struct("<4sBQIIQI")

#: Counts, participant ids and the CRC field (the header's last four
#: bytes, at ``_CRC_AT``).
_U32 = struct.Struct("<I")
_CRC_AT = _HEADER.size - _U32.size

#: One journaled op: oid, op-kind code, offset, nbytes, payload kind
#: (0 none, 1 recorded bytes, 2 length-only SizedPayload), payload len.
_OP = struct.Struct("<QBqqBQ")

_OP_CODES = {READ: 0, APPEND: 1, INSERT: 2, DELETE: 3, REPLACE: 4}
_OP_KINDS_BY_CODE = {code: kind for kind, code in _OP_CODES.items()}

#: Minimum journal size: one prepare page, the APPLIED and DECISION
#: pages, plus at least one spare prepare page for multi-page records.
MIN_JOURNAL_PAGES = 4

#: Default reserved journal region per shard.
DEFAULT_JOURNAL_PAGES = 8


class JournalRecord(NamedTuple):
    """One CRC-verified record parsed back from the journal region."""

    kind: int
    batch_id: int
    coordinator: int
    shard: int
    #: Participating shard indices (PREPARE/DECISION) — empty otherwise.
    participants: tuple[int, ...]
    #: The journaled shard-local ops (PREPARE only).
    mops: tuple[MultiOp, ...]


class JournalState(NamedTuple):
    """Everything one shard's journal region says, read from the image.

    ``prepare`` is the record in the PREPARE area (a PREPARE, a CLEAN,
    or ``None`` when the area is blank or fails its CRC — a torn
    prepare write parses as ``None``, i.e. it never became durable).
    ``applied`` and ``decision`` are the marker pages, already filtered
    to ``None`` unless their batch id matches ``prepare``'s.
    """

    prepare: JournalRecord | None
    applied: JournalRecord | None
    decision: JournalRecord | None

    @property
    def resolved(self) -> bool:
        """True when no in-flight batch needs recovery attention.

        A blank or CLEAN area is resolved; so is a PREPARE whose own
        APPLIED marker landed (the batch committed and was released on
        this shard).  A PREPARE without APPLIED — decided or not — is
        unresolved until recovery replays or rolls it back.
        """
        if self.prepare is None or self.prepare.kind == CLEAN:
            return True
        return self.applied is not None


def _encode_payload_field(data: Payload) -> tuple[int, int, bytes]:
    """(payload-kind code, length, raw bytes) for one op's data field."""
    if isinstance(data, SizedPayload):
        return 2, len(data), b""
    raw = bytes(data)
    if not raw:
        return 0, 0, b""
    return 1, len(raw), raw


def _decode_payload_field(code: int, length: int, raw: bytes) -> Payload:
    if code == 0:
        return b""
    if code == 2:
        return SizedPayload(length)
    return raw


def _encode_payload(
    participants: Sequence[int], mops: Sequence[MultiOp]
) -> bytes:
    """The participants, then each journaled op and its recorded bytes."""
    parts = [
        _U32.pack(len(participants)),
        *map(_U32.pack, participants),
        _U32.pack(len(mops)),
    ]
    for oid, op in mops:
        code, length, raw = _encode_payload_field(op.data)
        parts.append(_OP.pack(
            oid, _OP_CODES[op.kind], op.offset, op.nbytes, code, length
        ))
        parts.append(raw)
    return b"".join(parts)


def _frame(
    kind: int,
    batch_id: int,
    coordinator: int,
    shard: int,
    participants: Sequence[int],
    mops: Sequence[MultiOp],
    size: int,
) -> bytes:
    """One record of ``size`` bytes: header, payload, zero padding.

    The header is packed once with its CRC field zeroed; the CRC-32 of
    that header followed by the payload then takes the field's place.
    """
    payload = _encode_payload(participants, mops)
    header = _HEADER.pack(
        _MAGIC, kind, batch_id, coordinator, shard, len(payload), 0
    )
    crc = zlib.crc32(payload, zlib.crc32(header))
    return b"".join((
        header[:_CRC_AT],
        _U32.pack(crc),
        payload,
        bytes(size - _HEADER.size - len(payload)),
    ))


def _sized(
    participants: Sequence[int], mops: Sequence[MultiOp]
) -> tuple[tuple[MultiOp, ...], int]:
    """``mops`` with every ``bytearray`` or ``memoryview`` payload copied
    (so a caller's later change to its buffer cannot reach a pending
    record), and the record's unpadded size by arithmetic: header,
    counts, participants, then each op and the bytes it records (a
    :class:`SizedPayload` records none)."""
    size = _HEADER.size + 8 + 4 * len(participants) + _OP.size * len(mops)
    for _, op in mops:
        if type(op.data) is bytes:
            size += len(op.data)
        elif not isinstance(op.data, SizedPayload):
            return _sized(participants, [MultiOp(oid, op._replace(
                data=op.data if isinstance(op.data, SizedPayload)
                else bytes(op.data))) for oid, op in mops])
    return tuple(mops), size


def encode_record(
    kind: int,
    batch_id: int,
    coordinator: int,
    shard: int,
    participants: Sequence[int] = (),
    mops: Sequence[MultiOp] = (),
) -> bytes:
    """Serialize one journal record to its CRC-framed wire form."""
    return _frame(kind, batch_id, coordinator, shard, participants, mops,
                  _sized(participants, mops)[1])


def decode_record(image: bytes) -> JournalRecord | None:
    """Parse a record from raw page bytes; ``None`` if absent or torn.

    A failed magic, an implausible length, or a CRC mismatch (the torn
    multi-page prepare case) all mean the record never became durable.
    """
    if len(image) < _HEADER.size:
        return None
    magic, kind, batch_id, coordinator, shard, length, crc = (
        _HEADER.unpack_from(image)
    )
    if magic != _MAGIC or kind not in _KINDS:
        return None
    if _HEADER.size + length > len(image):
        return None
    payload = image[_HEADER.size : _HEADER.size + length]
    zeroed = _HEADER.pack(
        _MAGIC, kind, batch_id, coordinator, shard, length, 0
    )
    if zlib.crc32(zeroed + payload) != crc:
        return None
    view = memoryview(payload)
    pos = 0
    (n_participants,) = struct.unpack_from("<I", view, pos)
    pos += 4
    participants = tuple(
        struct.unpack_from("<I", view, pos + 4 * i)[0]
        for i in range(n_participants)
    )
    pos += 4 * n_participants
    (n_ops,) = struct.unpack_from("<I", view, pos)
    pos += 4
    mops: list[MultiOp] = []
    for _ in range(n_ops):
        oid, code, offset, nbytes, pkind, plen = _OP.unpack_from(view, pos)
        pos += _OP.size
        raw = b""
        if pkind == 1:
            raw = bytes(view[pos : pos + plen])
            pos += plen
        mops.append(MultiOp(oid, BatchOp(
            _OP_KINDS_BY_CODE[code], offset, nbytes,
            _decode_payload_field(pkind, plen, raw),
        )))
    return JournalRecord(
        kind, batch_id, coordinator, shard, participants, tuple(mops)
    )


class IntentJournal:
    """One shard's reserved journal region, bound to its environment."""

    def __init__(
        self, env: StorageEnvironment, base_page: int, n_pages: int
    ) -> None:
        if n_pages < MIN_JOURNAL_PAGES:
            raise InvalidArgumentError(
                f"journal needs at least {MIN_JOURNAL_PAGES} pages, "
                f"got {n_pages}"
            )
        self.env = env
        self.base_page = base_page
        self.n_pages = n_pages

    @classmethod
    def reserve(
        cls, env: StorageEnvironment, n_pages: int = DEFAULT_JOURNAL_PAGES
    ) -> "IntentJournal":
        """Reserve the journal region from the shard's meta area.

        Must be the store's first meta allocation so the region's page
        ids — and therefore every journal write point the chaos sweep
        enumerates — are deterministic.
        """
        if n_pages < MIN_JOURNAL_PAGES:
            raise InvalidArgumentError(
                f"journal needs at least {MIN_JOURNAL_PAGES} pages, "
                f"got {n_pages}"
            )
        base = env.areas.meta.allocate(n_pages)  # repro-lint: disable=ALLOC001 -- the journal region is reserved for the store's lifetime; fsck excuses it via IntentJournal.pages(), never a free path
        return cls(env, base, n_pages)

    # ------------------------------------------------------------------
    # Region geometry
    # ------------------------------------------------------------------
    @property
    def prepare_pages(self) -> int:
        """Page capacity of the PREPARE record area."""
        return self.n_pages - 2

    @property
    def applied_page(self) -> int:
        """Page id of the single-page APPLIED marker."""
        return self.base_page + self.n_pages - 2

    @property
    def decision_page(self) -> int:
        """Page id of the single-page DECISION marker."""
        return self.base_page + self.n_pages - 1

    def pages(self) -> frozenset[int]:
        """Every page id of the reserved region (for fsck exclusion)."""
        return frozenset(range(self.base_page, self.base_page + self.n_pages))

    # ------------------------------------------------------------------
    # Charged journal writes (the protocol's durability points)
    # ------------------------------------------------------------------
    def _encode(
        self,
        limit_pages: int,
        kind: int,
        batch_id: int,
        coordinator: int,
        shard: int,
        participants: Sequence[int] = (),
        mops: Sequence[MultiOp] = (),
    ) -> list[Callable[[], bytes]]:
        """A record as one builder per whole page, refused before
        anything is written if it needs more than ``limit_pages``.  Each
        page frames the whole record: a shared framing would let the
        disk's check at the write answer every later build."""
        mops, size = _sized(participants, mops)
        page_size = self.env.config.page_size
        n_pages = -(-size // page_size)
        if n_pages > limit_pages:
            raise InvalidArgumentError(
                f"journal record of {size} bytes needs {n_pages} "
                f"pages but the area holds {limit_pages}; raise "
                "journal_pages (or shrink the batch)"
            )
        build = functools.partial(_frame, kind, batch_id, coordinator, shard,
                                  tuple(participants), mops, n_pages * page_size)
        if n_pages == 1:
            return [build]
        return [lambda lo=lo: build()[lo : lo + page_size]
                for lo in range(0, n_pages * page_size, page_size)]

    def _write(self, page_id: int, record: list[Callable[[], bytes]]) -> int:
        """Write a record's pages; returns how many."""
        # Charged, checksummed, fault-interceptable — one physical write.
        self.env.pool.write_run(page_id, len(record), record, record=True)
        return len(record)

    def encode_prepare(
        self,
        batch_id: int,
        coordinator: int,
        shard: int,
        participants: Sequence[int],
        mops: Sequence[MultiOp],
    ) -> list[Callable[[], bytes]]:
        """The shard's PREPARE record, ready for :meth:`write_prepare`.

        Raises :class:`InvalidArgumentError` if the PREPARE area cannot
        hold it; nothing is written either way.
        """
        return self._encode(
            self.prepare_pages, PREPARE, batch_id, coordinator, shard,
            participants, mops,
        )

    def write_prepare(self, record: list[Callable[[], bytes]]) -> int:
        """Journal the shard's intent (from :meth:`encode_prepare`);
        returns the pages written.

        A multi-page record is written as ONE physical write, so the
        torn-write fault model applies: a prefix-only persist fails the
        CRC and the prepare never happened.
        """
        return self._write(self.base_page, record)

    def write_decision(
        self, batch_id: int, participants: Sequence[int]
    ) -> None:
        """The global commit point: one single-page atomic write."""
        coordinator = self_coordinator(participants)
        self._write(self.decision_page, self._encode(
            1, DECISION, batch_id, coordinator, coordinator, participants
        ))

    def write_applied(self, batch_id: int, shard: int) -> None:
        """Mark the shard's held commit about to be released (1 page)."""
        self._write(
            self.applied_page, self._encode(1, APPLIED, batch_id, shard, shard)
        )

    def write_clean(self, batch_id: int, shard: int) -> None:
        """Overwrite the PREPARE area head with a CLEAN resolution."""
        self._write(
            self.base_page, self._encode(1, CLEAN, batch_id, shard, shard)
        )

    # ------------------------------------------------------------------
    # Image-only reads (recovery and fsck; uncharged forensics)
    # ------------------------------------------------------------------
    def read_state(self, disk: SimulatedDisk | None = None) -> JournalState:
        """Parse the region from raw page images alone."""
        if disk is None:
            disk = self.env.disk
        prepare = decode_record(
            disk.peek_pages(self.base_page, self.prepare_pages)
        )
        applied = decode_record(disk.peek_pages(self.applied_page, 1))
        decision = decode_record(disk.peek_pages(self.decision_page, 1))
        if prepare is None or prepare.kind not in (PREPARE, CLEAN):
            prepare = None
        if applied is not None and (
            applied.kind != APPLIED
            or prepare is None
            or applied.batch_id != prepare.batch_id
        ):
            applied = None
        if decision is not None and decision.kind != DECISION:
            decision = None
        return JournalState(prepare, applied, decision)

    def read_decision(self, batch_id: int) -> JournalRecord | None:
        """The DECISION record for ``batch_id``, if durable (image-only)."""
        record = decode_record(self.env.disk.peek_pages(self.decision_page, 1))
        if record is None or record.kind != DECISION:
            return None
        if record.batch_id != batch_id:
            return None
        return record

    def residue_pages(self) -> list[int]:
        """Journal pages holding an unresolved batch's records.

        Empty when the region is resolved (blank, CLEAN, or applied);
        otherwise the PREPARE record's pages plus any matching marker
        pages — the ``journal-residue`` class fsck reports.
        """
        state = self.read_state()
        if state.resolved:
            return []
        assert state.prepare is not None
        _, size = _sized(state.prepare.participants, state.prepare.mops)
        n_pages = -(-size // self.env.config.page_size)
        residue = list(range(self.base_page, self.base_page + n_pages))
        if state.decision is not None:
            residue.append(self.decision_page)
        return residue


def self_coordinator(participants: Sequence[int]) -> int:
    """The coordinator shard: the lowest participating index."""
    if not participants:
        raise InvalidArgumentError("a batch needs at least one participant")
    return min(participants)
