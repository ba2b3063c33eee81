"""Public facade: one store object wrapping a scheme + environment.

Typical use::

    from repro import LargeObjectStore

    store = LargeObjectStore(scheme="eos", threshold_pages=16)
    oid = store.create(b"hello, large object world" * 1000)
    store.insert(oid, 5, b"!!!")
    chunk = store.read(oid, 0, 100)
    print(store.utilization(oid), store.stats.io_calls)

The store owns a private :class:`~repro.core.env.StorageEnvironment`
(simulated disk, buffer pool, buddy areas) and a single large-object
manager of the chosen scheme; every operation's simulated I/O cost
accumulates in :attr:`stats`.
"""

from __future__ import annotations

from typing import Sequence

from repro.blockbased.manager import BlockBasedManager
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.env import StorageEnvironment
from repro.core.manager import LargeObjectManager
from repro.core.payload import Payload, check_payload
from repro.disk.iomodel import IOStats
from repro.exec.engine import BatchResult
from repro.exec.plan import BatchOp, MultiOp
from repro.eos.manager import EOSManager, EOSOptions
from repro.esm.manager import ESMManager, ESMOptions
from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW
from repro.starburst.manager import StarburstManager, StarburstOptions
from repro.core.errors import InvalidArgumentError

#: The three storage schemes analysed by the paper.
SCHEMES = ("esm", "starburst", "eos")

#: The paper's schemes plus the block-based baseline class of Section 1.
ALL_SCHEMES = SCHEMES + ("blockbased",)


def make_manager(
    scheme: str,
    env: StorageEnvironment,
    *,
    leaf_pages: int = 4,
    threshold_pages: int = 4,
    improved_insert: bool = True,
    partial_leaf_io: bool = True,
    max_segment_pages: int | None = None,
) -> LargeObjectManager:
    """Construct a manager of the given scheme on an existing environment."""
    if scheme == "esm":
        return ESMManager(
            env,
            ESMOptions(
                leaf_pages=leaf_pages,
                improved_insert=improved_insert,
                partial_leaf_io=partial_leaf_io,
            ),
        )
    if scheme == "eos":
        return EOSManager(env, EOSOptions(threshold_pages=threshold_pages))
    if scheme == "starburst":
        return StarburstManager(
            env, StarburstOptions(max_segment_pages=max_segment_pages)
        )
    if scheme == "blockbased":
        return BlockBasedManager(env)
    raise InvalidArgumentError(
        f"unknown scheme {scheme!r}; expected one of {ALL_SCHEMES}"
    )


class LargeObjectStore:
    """A large-object store using one of the paper's three mechanisms."""

    def __init__(
        self,
        scheme: str = "eos",
        config: SystemConfig = PAPER_CONFIG,
        *,
        leaf_pages: int = 4,
        threshold_pages: int = 4,
        improved_insert: bool = True,
        partial_leaf_io: bool = True,
        max_segment_pages: int | None = None,
        record_data: bool = True,
        shadowing: bool = True,
    ) -> None:
        """Create a fresh store.

        Parameters mirror the paper's experimental knobs: ``leaf_pages``
        applies to ESM, ``threshold_pages`` to EOS, ``max_segment_pages``
        to Starburst.  ``record_data=False`` switches the leaf area to the
        paper's phantom (count-only) mode; ``shadowing=False`` disables
        the recovery policy (for ablations).
        """
        self.env = StorageEnvironment(
            config,
            record_leaf_data=record_data,
            shadow=DEFAULT_SHADOW if shadowing else NO_SHADOW,
        )
        self.manager = make_manager(
            scheme,
            self.env,
            leaf_pages=leaf_pages,
            threshold_pages=threshold_pages,
            improved_insert=improved_insert,
            partial_leaf_io=partial_leaf_io,
            max_segment_pages=max_segment_pages,
        )

    @property
    def scheme(self) -> str:
        """Name of the storage scheme in use."""
        return self.manager.scheme

    @property
    def config(self) -> SystemConfig:
        """The system parameters (paper Table 1 by default)."""
        return self.env.config

    # ------------------------------------------------------------------
    # Object operations (delegated to the manager)
    # ------------------------------------------------------------------
    def create(self, data: Payload = b"") -> int:
        """Create a large object; returns its object id."""
        check_payload(data)
        return self.manager.create(data)

    def destroy(self, oid: int) -> None:
        """Delete the object and free its space."""
        self.manager.destroy(oid)

    def size(self, oid: int) -> int:
        """Object size in bytes."""
        return self.manager.size(oid)

    def read(self, oid: int, offset: int, nbytes: int) -> Payload:
        """Read a byte range.

        Recorded stores return ``bytes``; with ``record_data=False`` the
        phantom leaf area returns a length-only all-zero
        :class:`~repro.core.payload.SizedPayload` instead (compare-equal
        to the zero bytes it stands for; ``bytes(result)``
        materializes).
        """
        return self.manager.read(oid, offset, nbytes)

    def append(self, oid: int, data: Payload) -> None:
        """Append bytes at the end."""
        check_payload(data)
        self.manager.append(oid, data)

    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes at an arbitrary position."""
        check_payload(data)
        self.manager.insert(oid, offset, data)

    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete bytes at an arbitrary position."""
        self.manager.delete(oid, offset, nbytes)

    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite a byte range in place (size unchanged)."""
        check_payload(data)
        self.manager.replace(oid, offset, data)

    def submit_ops(self, oid: int, ops: "Sequence[BatchOp]") -> "BatchResult":
        """Execute a batch of byte-range operations under the batch
        engine (:mod:`repro.exec`): group commit, per-op costs read
        off the one ledger, bit-identical counters versus per-op
        submission."""
        return self.manager.submit_ops(oid, ops)

    def submit_multi(self, mops: "Sequence[MultiOp]") -> "BatchResult":
        """Execute a multi-object op batch (each op names its own oid)
        under one batch lifecycle; see
        :meth:`~repro.core.manager.LargeObjectManager.submit_multi`."""
        return self.manager.submit_multi(mops)

    def utilization(self, oid: int) -> float:
        """Storage utilization including index pages (Section 4.4.1)."""
        return self.manager.utilization(oid)

    def allocated_pages(self, oid: int) -> int:
        """Pages allocated to the object, including index pages."""
        return self.manager.allocated_pages(oid)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """Cumulative simulated I/O activity of this store."""
        return self.env.cost.stats

    def elapsed_ms(self, since: IOStats | None = None) -> float:
        """Simulated I/O time in milliseconds (optionally since a snapshot)."""
        if since is None:
            return self.stats.elapsed_ms(self.config)
        return self.env.elapsed_ms_since(since)

    def snapshot(self) -> IOStats:
        """Capture the I/O counters for a later delta measurement."""
        return self.env.snapshot()
