"""Shared experiment parameters, scaling, and object-building helpers.

All experiments default to the paper's setup (Section 4.1): Table 1
system parameters and a 10 MB object.  Because a pure-Python simulation
of the full parameter sweep takes minutes, the pytest-benchmark harness
runs a scaled-down configuration by default; set ``REPRO_SCALE=paper``
to reproduce the paper-size runs, exactly as recorded in EXPERIMENTS.md.

This module also owns the harness's one result table (:func:`memoized`,
:func:`prime`, :func:`clear`): the paper's figures are columns of the
same runs, so every expensive point is computed once per process and
shared by whichever reports read it.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.core.payload import SizedPayload
from repro.exec.plan import append_op

MB = 1 << 20
KB = 1 << 10

#: Figure 5/6 append and scan sizes in kilobytes (paper footnote 2).
APPEND_SIZES_KB = (
    3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32,
    50, 64, 100, 128, 200, 256, 512,
)

#: ESM leaf sizes and EOS segment size thresholds, in pages (Section 4.1).
ESM_LEAF_PAGES = (1, 4, 16, 64)
EOS_THRESHOLDS = (1, 4, 16, 64)

#: Mean operation sizes for the random-update experiments (Section 4.4).
MEAN_OP_SIZES = (100, 10 * KB, 100 * KB)

#: Chunk size used to build the object before the random-update runs.
BUILD_CHUNK_BYTES = 100 * KB


@dataclasses.dataclass(frozen=True)
class Scale:
    """One experiment scale: object size, operation counts, sweep width."""

    name: str
    object_bytes: int
    n_ops: int
    window: int
    starburst_ops: int
    append_sizes_kb: tuple[int, ...]

    @property
    def marks(self) -> int:
        """Number of graph marks (windows) a run produces."""
        return self.n_ops // self.window


#: The paper's measurement scale (Section 4.1 / 4.4).
PAPER_SCALE = Scale(
    name="paper",
    object_bytes=10 * MB,
    n_ops=12_000,
    window=2_000,
    starburst_ops=240,
    append_sizes_kb=APPEND_SIZES_KB,
)

#: Default benchmark scale: same shapes, ~100x faster.
SMALL_SCALE = Scale(
    name="small",
    object_bytes=1 * MB,
    n_ops=1_200,
    window=200,
    starburst_ops=60,
    append_sizes_kb=(3, 4, 5, 8, 16, 32, 64, 128, 256, 512),
)

#: Tiny scale for smoke tests.
TINY_SCALE = Scale(
    name="tiny",
    object_bytes=256 * KB,
    n_ops=240,
    window=60,
    starburst_ops=24,
    append_sizes_kb=(3, 4, 8, 64),
)

#: Extra-large scale: a 128 MB object, far past the paper's 10 MB.  Only
#: feasible because payloads are length-only (:mod:`repro.core.payload`)
#: — at this size a materializing pipeline would copy gigabytes per run.
XL_SCALE = Scale(
    name="xl",
    object_bytes=128 * MB,
    n_ops=600,
    window=150,
    starburst_ops=24,
    append_sizes_kb=(64, 512),
)

#: GB-class scale, only practical on the batch execution path
#: (:mod:`repro.exec`): group commit cuts the per-op overhead that
#: dominates wall-clock at this size.  Like
#: ``xl``, feasible only because payloads are length-only.
XXL_SCALE = Scale(
    name="xxl",
    object_bytes=1024 * MB,
    n_ops=1_200,
    window=300,
    starburst_ops=24,
    append_sizes_kb=(64, 512),
)

_SCALES = {
    s.name: s
    for s in (PAPER_SCALE, SMALL_SCALE, TINY_SCALE, XL_SCALE, XXL_SCALE)
}


def format_object_size(nbytes: int) -> str:
    """Human label for an object size ("10 MB", "256 KB")."""
    if nbytes >= MB:
        return f"{nbytes / MB:g} MB"
    return f"{nbytes / KB:g} KB"


def resolve_scale(name: str | None = None) -> Scale:
    """Pick a scale: explicit name, else the REPRO_SCALE env var."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "small")
    try:
        return _SCALES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown scale {name!r}; expected one of {sorted(_SCALES)}"
        ) from None


#: The one result table, keyed by the ``compute_*`` function and its
#: arguments (all frozen dataclasses, ints and strings, so keys are
#: hashable).  An explicit dict rather than ``functools.lru_cache`` so
#: :func:`repro.experiments.parallel.prime_results` can fill it, which the
#: host-time benchmark (``perfbench``) relies on.
_RESULTS: dict[tuple[Callable[..., Any], tuple[Any, ...]], Any] = {}


#: Objects a Figure 5 build leaves for the Figure 6 scan of the same
#: object ("the n-byte scan was performed on the object created by
#: n-byte appends"): build arguments -> (store, oid), each taken once.
#: A scan with no entry builds its own object.
BUILT: dict[tuple[Any, ...], tuple[LargeObjectStore, int]] = {}


def memoized(compute: Callable[..., Any], *args: Any) -> Any:
    """``compute(*args)``, computed at most once per process."""
    key = (compute, args)
    try:
        return _RESULTS[key]
    except KeyError:
        result = _RESULTS[key] = compute(*args)
        return result


def prime(
    compute: Callable[..., Any], args: tuple[Any, ...], result: Any
) -> None:
    """Record a result computed elsewhere (never overwrites an entry)."""
    _RESULTS.setdefault((compute, args), result)


def clear() -> None:
    """Forget every memoized result and kept object (tests use this for
    isolation)."""
    _RESULTS.clear()
    BUILT.clear()


def make_store(
    scheme: str,
    *,
    leaf_pages: int = 4,
    threshold_pages: int = 4,
    config: SystemConfig = PAPER_CONFIG,
    shadowing: bool = True,
) -> LargeObjectStore:
    """An experiment store: phantom leaf data (the paper's own trick)."""
    return LargeObjectStore(
        scheme,
        config,
        leaf_pages=leaf_pages,
        threshold_pages=threshold_pages,
        record_data=False,
        shadowing=shadowing,
    )


def build_object(
    store: LargeObjectStore, total_bytes: int, chunk_bytes: int
) -> int:
    """Build an object by successive fixed-size appends; trim at the end.

    Returns the object id.  The appends go to ``submit_ops`` as one op
    batch, so the root or descriptor is committed once.  Trimming frees
    the untrimmed slack of the rightmost Starburst/EOS segment, as both
    systems do once building completes ("the last segment is trimmed");
    it is a lone op of its own, not a batch op kind.
    """
    oid = store.create()
    # Length-only payload: appends carry a size, never actual zeros.
    chunk = SizedPayload(chunk_bytes)
    ops = []
    done = 0
    while done < total_bytes:
        take = min(chunk_bytes, total_bytes - done)
        ops.append(append_op(chunk if take == chunk_bytes else chunk[:take]))
        done += take
    if ops:
        store.submit_ops(oid, ops)
    trim = getattr(store.manager, "trim", None)
    if trim is not None:
        trim(oid)
    return oid
