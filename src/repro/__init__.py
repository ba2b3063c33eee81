"""repro: reproduction of Biliris, "The Performance of Three Database
Storage Structures for Managing Large Objects" (SIGMOD 1992).

The package implements, from scratch, the three segment-based large-object
storage mechanisms the paper analyses — EXODUS (ESM), Starburst, and EOS —
together with every substrate the paper's prototypes run on: the analytic
I/O cost model, a simulated disk, a binary-buddy disk space manager with a
superdirectory, an LRU buffer pool with hybrid multi-block segment
buffering, and a segment-granularity shadowing recovery policy.

Beyond the paper's core, it also provides the block-based baseline class
the paper's introduction argues against, a record (small object) layer
with long-field descriptors, a file-like object view, and crash-injection
machinery that verifies the recoverability shadowing buys.
"""

from repro.blockbased.manager import BlockBasedManager
from repro.core.api import ALL_SCHEMES, SCHEMES, LargeObjectStore, make_manager
from repro.core.config import PAPER_CONFIG, SystemConfig, small_page_config
from repro.core.env import StorageEnvironment
from repro.core.database import Database, DuplicateNameError
from repro.core.file import LargeObjectFile
from repro.core.fsck import FsckReport, check as fsck
from repro.core.payload import Payload, SizedPayload, zeros
from repro.core.tuning import (
    Goal,
    recommend_eos_threshold_pages,
    recommend_esm_leaf_pages,
)
from repro.disk.iomodel import IOStats
from repro.eos.manager import EOSManager, EOSOptions
from repro.esm.manager import ESMManager, ESMOptions
from repro.exec.plan import MultiOp, multi_op
from repro.records.schema import Field, FieldKind, Schema
from repro.records.store import RecordId, RecordStore
from repro.shard.router import ShardedStore
from repro.starburst.manager import StarburstManager, StarburstOptions
from repro.workload.trace import Trace, replay

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEMES",
    "BlockBasedManager",
    "Database",
    "DuplicateNameError",
    "EOSManager",
    "EOSOptions",
    "ESMManager",
    "ESMOptions",
    "Field",
    "FsckReport",
    "Goal",
    "FieldKind",
    "IOStats",
    "LargeObjectFile",
    "LargeObjectStore",
    "MultiOp",
    "PAPER_CONFIG",
    "Payload",
    "RecordId",
    "RecordStore",
    "SCHEMES",
    "Schema",
    "ShardedStore",
    "SizedPayload",
    "StarburstManager",
    "StarburstOptions",
    "StorageEnvironment",
    "SystemConfig",
    "Trace",
    "fsck",
    "make_manager",
    "multi_op",
    "recommend_eos_threshold_pages",
    "recommend_esm_leaf_pages",
    "replay",
    "small_page_config",
    "zeros",
    "__version__",
]
