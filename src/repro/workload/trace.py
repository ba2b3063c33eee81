"""Operation traces: record, save, load, and replay workloads.

A trace is a plain-text, line-oriented log of byte-range operations.
Traces make experiments portable and debuggable: the same operation
stream can be replayed against every storage scheme (differential
testing), attached to a bug report, or re-run after a code change to
compare costs.

Format (one operation per line, '#' starts a comment):

    append <nbytes>
    insert <offset> <nbytes>
    delete <offset> <nbytes>
    replace <offset> <nbytes>
    read <offset> <nbytes>
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.core.errors import InvalidArgumentError, TraceError
from repro.core.manager import LargeObjectManager
from repro.exec.plan import APPEND, DELETE, INSERT, READ, REPLACE, BatchOp
from repro.workload.generator import WorkloadGenerator

#: Operation kinds a trace may contain: exactly the batch op kinds.
TRACE_KINDS = (APPEND, INSERT, DELETE, REPLACE, READ)


@dataclasses.dataclass(frozen=True)
class TraceOp:
    """One traced operation."""

    kind: str
    offset: int
    nbytes: int

    def to_line(self) -> str:
        """Serialize as one trace line."""
        if self.kind == "append":
            return f"append {self.nbytes}"
        return f"{self.kind} {self.offset} {self.nbytes}"

    @classmethod
    def from_line(cls, line: str) -> "TraceOp":
        """Parse one trace line."""
        parts = line.split()
        kind = parts[0]
        if kind not in TRACE_KINDS:
            raise TraceError(f"unknown trace operation {kind!r}")
        try:
            if kind == "append":
                if len(parts) != 2:
                    raise InvalidArgumentError
                return cls(kind, 0, int(parts[1]))
            if len(parts) != 3:
                raise InvalidArgumentError
            return cls(kind, int(parts[1]), int(parts[2]))
        except ValueError:
            raise TraceError(f"malformed trace line: {line!r}") from None


@dataclasses.dataclass
class Trace:
    """An ordered list of operations."""

    operations: list[TraceOp] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.operations)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        """Serialize the trace to text."""
        lines = ["# repro workload trace v1"]
        lines.extend(op.to_line() for op in self.operations)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse a trace from text."""
        operations = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            operations.append(TraceOp.from_line(line))
        return cls(operations)

    def save(self, path: str) -> None:
        """Write the trace to a file."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace from a file."""
        with open(path, "r", encoding="ascii") as handle:
            return cls.loads(handle.read())

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @classmethod
    def record(cls, generator: WorkloadGenerator, count: int) -> "Trace":
        """Capture ``count`` operations from a workload generator."""
        return cls(
            [
                TraceOp(op.kind, op.offset, op.nbytes)
                for op in generator.operations(count)
            ]
        )


@dataclasses.dataclass
class ReplayResult:
    """Outcome of replaying a trace against one manager."""

    scheme: str
    op_costs_ms: list[float]
    final_size: int
    final_utilization: float

    @property
    def total_ms(self) -> float:
        """Total simulated cost of the replay."""
        return sum(self.op_costs_ms)


def replay(
    manager: LargeObjectManager,
    oid: int,
    trace: Trace,
    payload_salt: int = 0,
) -> ReplayResult:
    """Apply a trace to an object as one op batch, with per-op costs.

    Insert/append/replace payloads are deterministic functions of the
    operation index and ``payload_salt``, so replays against different
    schemes produce byte-identical objects.
    """
    ops = [
        BatchOp(op.kind, op.offset, op.nbytes,
                _payload(op.nbytes, index + payload_salt))
        for index, op in enumerate(trace)
    ]
    result = manager.submit_ops(oid, ops)
    return ReplayResult(
        scheme=manager.scheme,
        op_costs_ms=list(result.op_costs_ms),
        final_size=manager.size(oid),
        final_utilization=manager.utilization(oid),
    )


def _payload(nbytes: int, salt: int) -> bytes:
    if nbytes <= 0:
        return b""
    # Replay needs reproducible *real* content so recorded-mode replays
    # round-trip byte-for-byte; this is the one workload-layer site that
    # must materialize.
    return bytes((salt * 31 + i) % 251 for i in range(nbytes))  # repro-lint: disable=PHANT001
