"""The six workloads: seeded input generation and timed pass execution.

The benchmark owns its inputs: every op stream below comes from a
``random.Random(seed)`` of this module (never from
``repro.workload.generator``), and the program under test receives only
the resulting ops.  All stores are phantom (``record_data=False``),
``PAPER_CONFIG``, leaf size / threshold 4 pages - the paper's default.

Vocabulary (see README.md): an *op* is one byte-range operation (one
grid point in ``paper_grid``); a *pass* replays a workload's whole op
stream on fresh stores; a *window* is a fixed run of consecutive ops
whose two boundaries are the only timestamps taken while measuring.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import random
import time
from typing import Any, Callable, NamedTuple, Sequence

from perfbench import calibrate
from repro.buffer.pool import PoolStats
from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG
from repro.core.env import StorageEnvironment
from repro.core.errors import ReproError
from repro.core.payload import Payload, SizedPayload
from repro.disk.iomodel import IOStats
from repro.exec.plan import APPEND, DELETE, INSERT, READ, REPLACE, BatchOp, MultiOp
from repro.experiments import parallel, registry
from repro.experiments.common import resolve_scale
from repro.experiments.random_ops import RunResult
from repro.shard.router import ShardedStore
from repro.tree.backed import TreeBackedManager

KB = 1 << 10
MB = 1 << 20

#: Leaf size (ESM) and segment-size threshold (EOS), in pages.
SETTING_PAGES = 4
#: Chunk used to pre-build objects before the timed windows.
BUILD_CHUNK = 100 * KB
SCHEMES = ("esm", "eos", "starburst")


class Sizes(NamedTuple):
    """How much work one pass holds; ``QUICK`` is for smokes and oracles."""

    mix_ops: int
    starburst_ops: int
    seq_bytes: int
    atomic_batches: int
    grid_scale: str


FULL = Sizes(12_000, 2_400, 128 * MB, 1_000, "small")
QUICK = Sizes(600, 120, 4 * MB, 50, "tiny")


# ----------------------------------------------------------------------
# Simulated-clock bookkeeping
# ----------------------------------------------------------------------
class EnvLedger:
    """Collects every ``StorageEnvironment`` built while installed.

    ``paper_grid`` builds its stores deep inside ``compute_point``; the
    only outside-in way to read their final cost ledgers is to see each
    environment as it is constructed.  One list append per store - not
    a hot path.
    """

    def __init__(self) -> None:
        self.envs: list[StorageEnvironment] = []
        self._original: Callable[..., None] | None = None
        self._base: dict[int, tuple[IOStats, PoolStats]] = {}

    def install(self) -> None:
        original = StorageEnvironment.__init__
        envs = self.envs

        def __init__(env: StorageEnvironment, *args: Any, **kwargs: Any) -> None:
            original(env, *args, **kwargs)
            envs.append(env)

        self._original = original
        StorageEnvironment.__init__ = __init__  # type: ignore[method-assign]

    def uninstall(self) -> None:
        if self._original is not None:
            StorageEnvironment.__init__ = self._original  # type: ignore[method-assign]
            self._original = None

    def begin(self) -> None:
        """Baseline every environment known so far."""
        self._base = {
            id(env): (env.cost.stats.copy(), copy.copy(env.pool.stats))
            for env in self.envs
        }

    def end(self) -> tuple[IOStats, PoolStats]:
        """Activity since :meth:`begin`, summed over all environments."""
        stats, pool = IOStats(), PoolStats()
        zero = (IOStats(), PoolStats())
        for env in self.envs:
            base_stats, base_pool = self._base.get(id(env), zero)
            stats.add(env.cost.stats.delta(base_stats))
            for field in ("hits", "misses", "evictions", "dirty_writebacks"):
                setattr(pool, field, getattr(pool, field)
                        + getattr(env.pool.stats, field)
                        - getattr(base_pool, field))
        return stats, pool


@dataclasses.dataclass
class PassResult:
    """Everything one pass measured, on both clocks."""

    failed: int
    #: Wall seconds of the windows (the kernel calls between them excluded).
    wall: float
    #: (ops in window, CPU seconds of window), in execution order.
    samples: list[tuple[int, float]]
    #: CPU seconds of the calibration kernel call after each window.
    kernel: list[float]
    stats: IOStats
    pool: PoolStats
    utilization: float
    index_pages: int
    #: Simulated outputs that disagree with the generator's model.
    mismatches: list[str]
    #: Trace span index range covering the measured windows.
    span_range: tuple[int, int] = (0, 0)
    #: paper_grid only: report name -> SHA-256 of its text.
    report_hashes: dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(n_ops for n_ops, _ in self.samples)

    @property
    def cpu(self) -> float:
        """CPU seconds of the windows alone."""
        return sum(seconds for _, seconds in self.samples)

    def calibrated(self, quiet: float) -> list[tuple[int, float]]:
        """The window samples in quiet-host CPU seconds: each divided by
        the slowdown its two neighbouring kernel readings show against
        the host's ``quiet`` level (``calibrate.quiet_level``)."""
        out = []
        before = self.kernel[0]
        for (n_ops, seconds), after in zip(self.samples, self.kernel):
            out.append(
                (n_ops, seconds / calibrate.slowdown((before + after) / 2, quiet))
            )
            before = after
        return out

    def slowdown(self, quiet: float) -> float:
        """The pass's overall slowdown: measured over calibrated time."""
        return self.cpu / sum(seconds for _, seconds in self.calibrated(quiet))

    @property
    def sim_key(self) -> tuple[int, int, int, int]:
        """The simulated counts two identical passes must agree on."""
        s = self.stats
        return (s.read_calls, s.write_calls, s.pages_read, s.pages_written)


#: A window: (ops in it, callable that runs it and returns failed ops).
Window = tuple[int, Callable[[], int]]


def measure(
    windows: Sequence[Window], ledger: EnvLedger, tracer: Any
) -> dict[str, Any]:
    """Run the windows back to back; the measured part of a pass.

    The clock is the interpreter's CPU time, read at window boundaries
    only.  The program is single-threaded and does no real I/O, so CPU
    time is wall time minus the moments the host ran something else -
    which on a shared VM can double a wall reading (README.md, "Which
    clock").  Wall time is summed beside it so a disturbed pass can be
    told from a quiet one.  After every window the calibration kernel
    runs once, off both clocks, to record how fast the host was at that
    moment.
    """
    samples: list[tuple[int, float]] = []
    kernel: list[float] = []
    failed = 0
    wall = 0.0
    cpu_clock, wall_clock = time.thread_time, time.perf_counter
    run_kernel = calibrate.kernel
    ledger.begin()
    gc.collect()
    span_lo = tracer.begin_measure() if tracer is not None else 0
    last, wall_last = cpu_clock(), wall_clock()
    for n_ops, run_window in windows:
        failed += run_window()
        now, wall_now = cpu_clock(), wall_clock()
        run_kernel()
        after = cpu_clock()
        samples.append((n_ops, now - last))
        kernel.append(after - now)
        wall += wall_now - wall_last
        last, wall_last = after, wall_clock()
    span_hi = tracer.end_measure() if tracer is not None else 0
    stats, pool = ledger.end()
    return dict(
        failed=failed, wall=wall, samples=samples, kernel=kernel,
        stats=stats, pool=pool, span_range=(span_lo, span_hi),
    )


# ----------------------------------------------------------------------
# Op-stream workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Section:
    """One store's share of a pass: pre-built objects plus an op list.

    ``api`` picks how ops reach the program: ``"batch"`` submits each
    window through ``store.submit_ops``; ``"perop"`` calls
    ``store.read`` / ``store.append`` once per op; ``"many"`` sends each
    element of ``ops`` (a list of ``(object index, BatchOp)``) through
    ``ShardedStore.submit_many`` on a 4-shard atomic store.
    """

    label: str
    scheme: str
    api: str
    #: Ops per window (batches per window for ``"many"``).
    window: int
    #: Sizes of the objects built, untimed, before the first window.
    prebuilt: tuple[int, ...]
    ops: list[Any]
    #: The generator's model of each object's size after every op ran.
    final_sizes: tuple[int, ...]
    #: Trim the object at the end of the last window (``seq_build``).
    trim: bool = False
    #: Read-only: the store is built once and shared by every pass.
    reuse: bool = False

    @property
    def n_ops(self) -> int:
        if self.api == "many":
            return sum(len(batch) for batch in self.ops)
        return len(self.ops)

    def prefix(self, n_ops: int) -> "Section":
        """The same section cut to its first ``n_ops`` ops (no model)."""
        per_item = len(self.ops[0]) if self.api == "many" else 1
        return dataclasses.replace(
            self, ops=self.ops[: max(1, n_ops // per_item)],
            final_sizes=(), trim=False, reuse=False,
        )


@dataclasses.dataclass
class Built:
    """A section's live store and objects."""

    store: Any
    oids: list[int]
    envs: list[StorageEnvironment]


def build_section(
    section: Section,
    *,
    record: bool = False,
    fill: Callable[[int], Payload] = SizedPayload,
) -> tuple[Any, list[int]]:
    """Construct the section's store and pre-build its objects."""
    if section.api == "many":
        store: Any = ShardedStore(
            section.scheme, PAPER_CONFIG, shards=4,
            leaf_pages=SETTING_PAGES, threshold_pages=SETTING_PAGES,
            record_data=record, atomic=True,
        )
    else:
        store = LargeObjectStore(
            section.scheme, PAPER_CONFIG,
            leaf_pages=SETTING_PAGES, threshold_pages=SETTING_PAGES,
            record_data=record,
        )
    oids = []
    for size in section.prebuilt:
        oid = store.create()
        for done in range(0, size, BUILD_CHUNK):
            store.append(oid, fill(min(BUILD_CHUNK, size - done)))
        if size:
            _trim(store, oid)
        oids.append(oid)
    return store, oids


def _trim(store: Any, oid: int) -> None:
    """Free the rightmost segment's slack, as EOS and Starburst do once
    building completes (the sharded router has no trim; its objects
    keep their slack)."""
    trim = getattr(getattr(store, "manager", None), "trim", None)
    if trim is not None:
        trim(oid)


def object_states(built: Built) -> list[tuple[float, int, int]]:
    """(utilization, size, index pages) of every object in a section."""
    states = []
    store = built.store
    for oid in built.oids:
        if isinstance(store, ShardedStore):
            shard = store.shards[store.shard_of(oid)]
            local = store.local_oid(oid)
        else:
            shard, local = store, oid
        manager = shard.manager
        index_pages = (
            manager.tree_of(local).index_page_count()
            if isinstance(manager, TreeBackedManager) else 0
        )
        states.append((store.utilization(oid), store.size(oid), index_pages))
    return states


def bind(section: Section, oids: Sequence[int]) -> list[Any]:
    """The section's items as the program's API takes them: ``"many"``
    batches name their objects by the ids the built store gave them."""
    if section.api == "many":
        return [
            [MultiOp(oids[index], op) for index, op in batch]
            for batch in section.ops
        ]
    return section.ops


def submit(api: str, store: Any, oid: int, items: Sequence[Any]) -> list[Any]:
    """Hand one window's items to the program; one result per op."""
    if api == "batch":
        return list(store.submit_ops(oid, items).results)
    if api == "perop":
        return [
            store.read(oid, op.offset, op.nbytes) if op.kind == READ
            else store.append(oid, op.data)
            for op in items
        ]
    return [
        result for batch in items for result in store.submit_many(batch).results
    ]


def _windows(section: Section, built: Built, n_items: int) -> list[Window]:
    """The windows covering the first ``n_items`` items of a section."""
    store, api, oid = built.store, section.api, built.oids[0]
    items = bind(section, built.oids)

    def run(chunk: Sequence[Any], ops: Sequence[BatchOp], last: bool) -> int:
        try:
            results = submit(api, store, oid, chunk)
            if last and section.trim:
                _trim(store, oid)
        except ReproError:
            return len(ops)
        return sum(
            1 for op, result in zip(ops, results)
            if op.kind == READ and len(result) != op.nbytes
        )

    windows: list[Window] = []
    for lo in range(0, n_items, section.window):
        hi = min(lo + section.window, n_items)
        chunk = items[lo:hi]
        ops = (
            [mop.op for batch in chunk for mop in batch] if api == "many" else chunk
        )
        windows.append((
            len(ops),
            lambda c=chunk, o=ops, last=hi == len(items): run(c, o, last),
        ))
    return windows


class OpStreamWorkload:
    """A workload whose pass is a list of sections replayed in order."""

    def __init__(
        self,
        name: str,
        generate: Callable[[int, Sizes], list[Section]],
        ledger: EnvLedger,
        sizes: Sizes = FULL,
    ) -> None:
        self.name = name
        self._generate = generate
        self.ledger = ledger
        self.sizes = sizes
        self.sections: list[Section] = []
        self._reused: dict[str, Built] = {}
        #: Set by the traced run; spans and observers key off it.
        self.tracer: Any = None

    def generate(self, seed: int) -> int:
        """Make the op stream from ``seed``; returns ops per pass."""
        self.sections = self._generate(seed, self.sizes)
        return sum(section.n_ops for section in self.sections)

    def drop_state(self) -> None:
        """Forget stores shared between passes (rebuilt on next use)."""
        self._reused.clear()

    def attach(self, tracer: Any) -> None:
        """Trace from the next pass on; stores built before the wrappers
        were installed are dropped."""
        self.tracer = tracer
        self.drop_state()

    def _build(self, section: Section) -> Built:
        built = self._reused.get(section.label) if section.reuse else None
        if built is None:
            before = len(self.ledger.envs)
            store, oids = build_section(section)
            built = Built(store, oids, self.ledger.envs[before:])
        else:
            self.ledger.envs.extend(built.envs)
        if section.reuse:
            self._reused[section.label] = built
            # Every pass over a shared store starts with a cold pool, so
            # the first pass charges exactly what the later ones do.
            for env in built.envs:
                env.pool.flush_all()
                env.pool.reset()
        return built

    def run_pass(self, fraction: float = 1.0) -> PassResult:
        """Replay the first ``fraction`` of every section on fresh stores."""
        self.ledger.envs.clear()
        builts = []
        windows: list[Window] = []
        for section in self.sections:
            built = self._build(section)
            builts.append(built)
            n_items = len(section.ops)
            if fraction < 1.0:
                n_items = max(1, int(n_items * fraction))
            windows.extend(_windows(section, built, n_items))
        measured = measure(windows, self.ledger, self.tracer)
        utilizations: list[float] = []
        index_pages = 0
        mismatches: list[str] = []
        for section, built in zip(self.sections, builts):
            states = object_states(built)
            utilizations.extend(state[0] for state in states)
            index_pages += sum(state[2] for state in states)
            sizes = tuple(state[1] for state in states)
            if fraction == 1.0 and sizes != section.final_sizes:
                mismatches.append(
                    f"{self.name}/{section.label}: store sizes {sizes} != "
                    f"generator model {section.final_sizes}"
                )
        return PassResult(
            utilization=sum(utilizations) / len(utilizations),
            index_pages=index_pages,
            mismatches=mismatches,
            **measured,
        )


def generate_mix(
    rng: random.Random, object_bytes: int, n_ops: int, mean: int
) -> tuple[list[BatchOp], int]:
    """Section 4.4's random update mix; returns (ops, final model size).

    40 % reads, 30 % inserts, 30 % deletes, sizes uniform in 0.5-1.5 x
    ``mean``, offsets uniform over the object; a delete takes the size
    of the previous insert, and an update that would leave a +/-10 %
    band around the starting size is flipped to the correcting kind.
    """
    ops: list[BatchOp] = []
    size = object_bytes
    low, high = mean // 2, mean + mean // 2
    last_insert = mean
    for _ in range(n_ops):
        roll = rng.random()
        kind = INSERT if roll < 0.30 else DELETE if roll < 0.60 else READ
        if kind != READ:
            if size < 0.9 * object_bytes:
                kind = INSERT
            elif size > 1.1 * object_bytes:
                kind = DELETE
        if kind == INSERT:
            nbytes = rng.randint(low, high)
            ops.append(BatchOp(INSERT, rng.randint(0, size), 0, SizedPayload(nbytes)))
            last_insert = nbytes
            size += nbytes
        elif kind == DELETE:
            nbytes = last_insert
            ops.append(BatchOp(DELETE, rng.randint(0, size - nbytes), nbytes))
            size -= nbytes
        else:
            nbytes = rng.randint(low, high)
            ops.append(BatchOp(READ, rng.randint(0, size - nbytes), nbytes))
    return ops, size


def _mix_sections(
    seed: int, schemes: Sequence[str], n_ops: int, window: int
) -> list[Section]:
    object_bytes = 10 * MB
    ops, final = generate_mix(random.Random(seed), object_bytes, n_ops, 10 * KB)
    return [
        Section(scheme, scheme, "batch", window, (object_bytes,), ops, (final,))
        for scheme in schemes
    ]


def update_mix_tree(seed: int, sizes: Sizes) -> list[Section]:
    return _mix_sections(seed, ("esm", "eos"), sizes.mix_ops, 100)


def update_mix_starburst(seed: int, sizes: Sizes) -> list[Section]:
    return _mix_sections(seed, ("starburst",), sizes.starburst_ops, 20)


SEQ_CHUNKS = (10 * KB, 100 * KB)


def _chunks(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(chunk, total - lo)) for lo in range(0, total, chunk)]


def seq_build(seed: int, sizes: Sizes) -> list[Section]:
    # Sequential streams have nothing to randomize: the seed is unused.
    sections = []
    for scheme in SCHEMES:
        for chunk in SEQ_CHUNKS:
            ops = [
                BatchOp(APPEND, data=SizedPayload(n))
                for _, n in _chunks(sizes.seq_bytes, chunk)
            ]
            sections.append(Section(
                f"{scheme}/{chunk // KB}KB", scheme, "perop", 256, (0,), ops,
                (sizes.seq_bytes,), trim=True,
            ))
    return sections


def seq_scan(seed: int, sizes: Sizes) -> list[Section]:
    ops = [
        BatchOp(READ, lo, n)
        for chunk in SEQ_CHUNKS
        for lo, n in _chunks(sizes.seq_bytes, chunk)
    ]
    return [
        Section(scheme, scheme, "perop", 256, (sizes.seq_bytes,), ops,
                (sizes.seq_bytes,), reuse=True)
        for scheme in SCHEMES
    ]


ATOMIC_OBJECTS = 8
ATOMIC_OBJECT_BYTES = 256 * KB
ATOMIC_REPLACE_BYTES = 100


def atomic_multi_shard(seed: int, sizes: Sizes) -> list[Section]:
    rng = random.Random(seed)
    data = SizedPayload(ATOMIC_REPLACE_BYTES)
    span = ATOMIC_OBJECT_BYTES - ATOMIC_REPLACE_BYTES
    batches = [
        [(index, BatchOp(REPLACE, rng.randint(0, span), 0, data))
         for index in range(ATOMIC_OBJECTS)]
        for _ in range(sizes.atomic_batches)
    ]
    prebuilt = (ATOMIC_OBJECT_BYTES,) * ATOMIC_OBJECTS
    return [
        Section(scheme, scheme, "many", 10, prebuilt, batches, prebuilt)
        for scheme in SCHEMES
    ]


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
class PaperGridWorkload:
    """The whole ``repro-experiments`` reproduction, in-process and serial."""

    name = "paper_grid"

    def __init__(self, ledger: EnvLedger, sizes: Sizes = FULL) -> None:
        self.ledger = ledger
        self.sizes = sizes
        self.points: list[Any] = []
        self.tracer: Any = None
        #: The three program entry points; the traced run rebinds them.
        self.compute_point = parallel.compute_point
        self.prime_results = parallel.prime_results
        self.run_report = registry.run

    def generate(self, seed: int) -> int:
        # The program fixes its own seeds (WORKLOAD_SEED); ours is unused.
        scale = resolve_scale(self.sizes.grid_scale)
        self.points = registry.full_grid(list(registry.EXPERIMENTS), scale)
        return len(self.points) + 1

    def drop_state(self) -> None:
        parallel.clear_caches()

    def attach(self, tracer: Any) -> None:
        """Trace from the next pass on.  Module functions cannot be
        wrapped in place, so rebind the names this workload calls."""
        self.tracer = tracer
        self.compute_point = tracer.wrap_function("experiments", self.compute_point)
        self.prime_results = tracer.wrap_function("experiments", self.prime_results)
        self.run_report = tracer.wrap_function("experiments", self.run_report)

    def run_pass(self, fraction: float = 1.0) -> PassResult:
        """Compute every grid point, then render all reports.

        Each point is one op and one window; rendering the ten reports
        from the primed caches is one more.  A partial pass (the
        warm-up) strides through the grid so every point kind is
        touched, and renders nothing.
        """
        full = fraction == 1.0
        points = self.points if full else self.points[:: round(1 / fraction)]
        results: list[Any] = []
        reports: dict[str, str] = {}

        def compute(point: Any) -> int:
            try:
                results.append(self.compute_point(point))
            except ReproError:
                results.append(None)
                return 1
            return 0

        def render() -> int:
            if None in results:
                return 1
            self.prime_results(points, results)
            for name in registry.EXPERIMENTS:
                reports[name] = self.run_report(name)
            return 0

        windows: list[Window] = [(1, lambda p=point: compute(p)) for point in points]
        if full:
            windows.append((1, render))
        parallel.clear_caches()
        self.ledger.envs.clear()
        measured = measure(windows, self.ledger, self.tracer)
        utilizations = [
            result.windows[-1].utilization
            for result in results if isinstance(result, RunResult)
        ]
        return PassResult(
            utilization=sum(utilizations) / len(utilizations),
            index_pages=0,
            mismatches=[],
            report_hashes={
                name: hashlib.sha256(text.encode()).hexdigest()
                for name, text in reports.items()
            },
            **measured,
        )


OP_STREAMS: dict[str, Callable[[int, Sizes], list[Section]]] = {
    "update_mix_tree": update_mix_tree,
    "update_mix_starburst": update_mix_starburst,
    "seq_build": seq_build,
    "seq_scan": seq_scan,
    "atomic_multi_shard": atomic_multi_shard,
}


def make_workload(
    name: str, ledger: EnvLedger, sizes: Sizes = FULL
) -> "OpStreamWorkload | PaperGridWorkload":
    if name == "paper_grid":
        return PaperGridWorkload(ledger, sizes)
    return OpStreamWorkload(name, OP_STREAMS[name], ledger, sizes)
