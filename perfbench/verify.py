"""Output verification: a byte-level oracle and the committed goldens.

The timed stores are phantom, so timing alone cannot tell a right answer
from a wrong one.  :func:`check_oracle` replays a short prefix of each
section on a ``record_data=True`` store with random (non-zero) payload
bytes beside a plain ``bytearray`` per object, compares every read, the
final content and size, runs ``fsck``, and asserts the recorded replay
charged exactly the I/O the phantom replay of the same prefix did.

The goldens pin the simulated clock: report hashes for ``paper_grid`` and
per-pass I/O counts at the two published seeds for the op streams.  Every
function returns a list of human-readable disagreements; each entry is
one ``sim_mismatches``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Any, Sequence

from perfbench.spec import ROOT
from perfbench.workloads import Section, bind, build_section, submit
from repro.core import fsck
from repro.core.payload import SizedPayload
from repro.exec.plan import APPEND, DELETE, INSERT, READ, REPLACE, BatchOp
from repro.recovery.atomic import fsck_sharded_store
from repro.shard.router import ShardedStore

GOLDEN = ROOT / "perfbench" / "golden"
SIM_COUNTS = GOLDEN / "sim_counts.json"

#: Ops of each section the oracle replays.
PREFIX_OPS = 300


def _flat_ops(section: Section, items: Sequence[Any]) -> list[tuple[int, BatchOp]]:
    """(object index, op) for every op, in execution order."""
    if section.api == "many":
        return [pair for batch in items for pair in batch]
    return [(0, op) for op in items]


def _with_bytes(section: Section, rng: random.Random) -> list[Any]:
    """The section's ops with length-only payloads made real bytes."""
    def real(op: BatchOp) -> BatchOp:
        if isinstance(op.data, SizedPayload) and len(op.data):
            return op._replace(data=rng.randbytes(len(op.data)))
        return op

    if section.api == "many":
        return [[(index, real(op)) for index, op in batch] for batch in section.ops]
    return [real(op) for op in section.ops]


def _replay(section: Section, items: Sequence[Any], record: bool, rng: random.Random):
    """Build, replay in the section's windows, return what was observed."""
    chunks: list[bytes] = []

    def fill(nbytes: int) -> Any:
        if not record:
            return SizedPayload(nbytes)
        chunks.append(rng.randbytes(nbytes))
        return chunks[-1]

    store, oids = build_section(section, record=record, fill=fill)
    bound = bind(dataclasses.replace(section, ops=items), oids)
    before = store.snapshot()
    results: list[Any] = []
    for lo in range(0, len(bound), section.window):
        results.extend(
            submit(section.api, store, oids[0], bound[lo:lo + section.window])
        )
    stats = store.stats.delta(before)
    return store, oids, results, stats, b"".join(chunks)


def _fsck_clean(store: Any, oids: list[int]) -> bool:
    if isinstance(store, ShardedStore):
        return all(report.clean for report in fsck_sharded_store(store))
    return fsck.check([(store.manager, oids)]).clean


def check_oracle(name: str, sections: Sequence[Section]) -> list[str]:
    """Replay each section's prefix against a ``bytearray`` oracle."""
    problems: list[str] = []
    for full in sections:
        section = full.prefix(PREFIX_OPS)
        where = f"{name}/{section.label}"
        rng = random.Random(len(section.ops))
        items = _with_bytes(section, rng)
        store, oids, results, stats, built = _replay(section, items, True, rng)
        oracle, position = [], 0
        for size in section.prebuilt:
            oracle.append(bytearray(built[position:position + size]))
            position += size
        for number, ((index, op), result) in enumerate(
            zip(_flat_ops(section, items), results)
        ):
            model = oracle[index]
            if op.kind == READ:
                if bytes(result) != model[op.offset:op.offset + op.nbytes]:
                    problems.append(f"{where}: read #{number} differs from oracle")
            elif op.kind == INSERT:
                model[op.offset:op.offset] = op.data
            elif op.kind == DELETE:
                del model[op.offset:op.offset + op.nbytes]
            elif op.kind == APPEND:
                model += op.data
            elif op.kind == REPLACE:
                model[op.offset:op.offset + len(op.data)] = op.data
        for oid, model in zip(oids, oracle):
            if store.size(oid) != len(model):
                problems.append(f"{where}: size of object {oid} differs from oracle")
            elif bytes(store.read(oid, 0, len(model))) != model:
                problems.append(f"{where}: content of object {oid} differs from oracle")
        if not _fsck_clean(store, oids):
            problems.append(f"{where}: fsck not clean after the prefix")
        phantom_stats = _replay(section, section.ops, False, rng)[3]
        if phantom_stats != stats:
            problems.append(
                f"{where}: recorded replay charged {stats}, phantom {phantom_stats}"
            )
    return problems


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def _report_file(scale: str):
    return GOLDEN / f"paper_grid_{scale}.sha256"


def check_reports(scale: str, hashes: dict[str, str]) -> list[str]:
    """Compare report hashes with the committed ones for ``scale``."""
    golden = dict(
        reversed(line.split()) for line in _report_file(scale).read_text().splitlines()
    )
    return [
        f"paper_grid: report {name!r} differs from golden ({scale})"
        for name in sorted(set(golden) | set(hashes))
        if golden.get(name) != hashes.get(name)
    ]


def write_reports(scale: str, hashes: dict[str, str]) -> None:
    _report_file(scale).write_text(
        "".join(f"{digest}  {name}\n" for name, digest in sorted(hashes.items()))
    )


def check_sim_counts(name: str, seed: int, sim_key: Sequence[int]) -> list[str]:
    """Compare one full pass's I/O counts with the golden for ``seed``.

    Seeds without a golden entry are not pinned (the oracle and the
    pass-to-pass identity checks still apply to them).
    """
    golden = json.loads(SIM_COUNTS.read_text()).get(name, {}).get(str(seed))
    if golden is None or list(sim_key) == golden:
        return []
    return [
        f"{name}: pass charged (read calls, write calls, pages read, pages "
        f"written) = {list(sim_key)}, golden for seed {seed} is {golden}"
    ]


def write_sim_counts(name: str, seed: int, sim_key: Sequence[int]) -> None:
    counts = json.loads(SIM_COUNTS.read_text()) if SIM_COUNTS.exists() else {}
    counts.setdefault(name, {})[str(seed)] = list(sim_key)
    SIM_COUNTS.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
