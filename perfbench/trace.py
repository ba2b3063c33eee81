"""Outside-in tracing: class-level wrappers around each layer's entry points.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public methods listed in :func:`entry_points` with closures
that record one span ``(fn, start, end, parent)`` per call into flat
arrays, and :meth:`Tracer.fold` turns the spans of one measured pass into
per-layer call counts and *self* time (a span's duration minus the part
its child spans cover).  Install before any store is built: the program
resolves these methods through the class, so every store built afterwards
is traced and :meth:`Tracer.uninstall` restores the originals exactly.

Spans are stamped with ``time.perf_counter``: it costs a fifth of a CPU
clock reading here, and spans are only ever used as *shares* of a pass,
which an interruption of the host inflates in proportion.

A wrapper still costs more than some of the methods it wraps
(``BufferPool.unfix``), so raw self times would credit the busiest
boundaries with the tracer's own work.  :meth:`Tracer.calibrate`
measures, on a method that does nothing, what one wrapper adds between
its span's two clock readings and what it adds around them, as
``profile.Profile.calibrate`` does; :meth:`Tracer.fold` takes the first
out of the span and the second out of its parent.  In a real pass a
wrapper runs colder than in that loop and costs up to twice as much;
the remainder stays spread over all spans and drops out when the caller
turns self times into shares of the pass.

Time spent in module-level functions (``repro.core.payload`` above all)
cannot be wrapped from outside and lands in the calling span's self time.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, NamedTuple

#: Layer names are the ``src/repro`` packages, outermost first.
LAYERS = (
    "experiments", "shard", "atomic", "exec", "manager",
    "tree", "segio", "buddy", "buffer", "disk",
)

_MANAGER_OPS = ("read", "insert", "delete", "append", "replace",
                "create", "destroy", "trim")
#: Disk entry points that charge the simulated cost model.
_CHARGED_DISK = frozenset({"read_pages", "read_page_views", "write_pages"})


def entry_points() -> Iterator[tuple[str, type, tuple[str, ...]]]:
    """(layer, class, method names) for every wrapped boundary."""
    from repro.atomic.twophase import AtomicCoordinator
    from repro.blockbased.manager import BlockBasedManager
    from repro.buddy.allocator import BuddyAllocator
    from repro.buffer.pool import BufferPool
    from repro.disk.disk import SimulatedDisk
    from repro.eos.manager import EOSManager
    from repro.esm.manager import ESMManager
    from repro.exec.engine import BatchEngine
    from repro.segio import SegmentIO
    from repro.shard.router import ShardedStore
    from repro.starburst.manager import StarburstManager
    from repro.tree.tree import PositionalTree

    yield "exec", BatchEngine, (
        "run_batch", "run_multi", "execute_read", "execute_write_leaves",
        "apply_held",
    )
    yield "shard", ShardedStore, ("submit_many", "submit_ops", "create", "append")
    yield "atomic", AtomicCoordinator, ("submit_many",)
    for manager in (ESMManager, EOSManager, StarburstManager, BlockBasedManager):
        yield "manager", manager, tuple(
            name for name in _MANAGER_OPS if hasattr(manager, name)
        )
    yield "tree", PositionalTree, (
        "locate", "extents_covering", "neighbors", "update_extent",
        "append_extent", "replace_span", "begin_op", "end_op", "commit_root",
        "last_extent",
    )
    yield "segio", SegmentIO, (
        "read_range", "read_pages", "read_boundary_unaligned", "write_pages",
    )
    yield "buddy", BuddyAllocator, ("allocate", "free")
    yield "buffer", BufferPool, (
        "fix", "fix_new", "unfix", "read_run", "write_run",
        "update_if_resident", "flush_page", "flush_all", "invalidate",
        "invalidate_run",
    )
    yield "disk", SimulatedDisk, (
        "read_pages", "read_page_views", "write_pages", "peek_pages",
        "poke_pages",
    )


class PassTrace(NamedTuple):
    """One measured pass, folded."""

    spans: int
    #: layer -> number of spans / summed self seconds.
    calls: dict[str, int]
    self_s: dict[str, float]
    #: (layer, fn) -> (calls, self seconds); the full per-function table.
    by_fn: dict[tuple[str, str], tuple[int, float]]
    #: Seconds the top-level spans account for, their wrappers included;
    #: the rest of the pass belongs to no wrapped layer ("other").
    covered_s: float
    #: manager op name -> median inclusive seconds.
    manager_p50_s: dict[str, float]
    #: Charged disk calls under an ``atomic`` span with no ``manager`` ancestor.
    journal_io_calls: int
    #: Observer tallies (see ``Tracer._observers``).
    counts: dict[str, float]


class Tracer:
    """Span recorder; spans stay in memory until :meth:`fold` reads them."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.fn_ids = array("i")
        self.parents = array("i")
        #: fn id -> (layer, function name).
        self.names: list[tuple[str, str]] = []
        self._stack = [-1]
        self._installed: list[tuple[type, str, Any]] = []
        #: Seconds one wrapper adds inside its own span / to its caller.
        self.inside_s = 0.0
        self.outside_s = 0.0
        #: Lowest seconds per call seen so far: plain, wrapped, in span.
        self._least = [math.inf, math.inf, math.inf]
        #: True only inside the measured windows; gates the observers.
        self.measuring = False
        self.counts: Counter[str] = Counter()
        self._observers: dict[tuple[str, str], Callable[..., None]] = {
            ("buddy", "allocate"): self._saw_allocate,
            ("exec", "run_batch"): self._saw_run_batch,
            ("exec", "run_multi"): self._saw_run_multi,
            ("shard", "submit_many"): self._saw_submit_many,
        }

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap_function(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn`` (nothing is rebound)."""
        name = fn.__name__
        fn_id = len(self.names)
        self.names.append((layer, name))
        starts, ends = self.starts, self.ends
        fn_ids, parents, stack = self.fn_ids, self.parents, self._stack
        clock = time.perf_counter
        observer = self._observers.get((layer, name))

        # Two copies of one body: the common wrapper must not pay even a
        # branch for the four entry points that carry an observer.
        if observer is None:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                parents.append(stack[-1])
                fn_ids.append(fn_id)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                parents.append(stack[-1])
                fn_ids.append(fn_id)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                if self.measuring:
                    observer(args, result)
                return result

        return wrapper

    def calibrate(self, rounds: int = 7, calls: int = 3000) -> None:
        """Measure the wrapper's own cost on a method that does nothing.

        The extra time of a wrapped call over a plain one is partly
        between the span's two clock readings (``inside_s``) and partly
        around them, where the caller's span sees it (``outside_s``).

        Each of the three timings is the lowest of all rounds so far,
        and the runner calls this again after every traced pass.  A
        round the host interrupts or slows only reads higher, and the
        errors are not alike: a cost put too low stays spread over all
        spans and drops out of the shares, one put too high takes real
        time out of the cheapest spans until whole layers read 0 (seen
        with the median of seven rounds at install time, when all of
        them fell into a spell of a shared core and the passes did not).
        """
        class Probe:
            def nothing(self, start: int, n_pages: int) -> None:
                pass

        plain_probe, wrapped_probe = Probe(), Probe()
        scratch = Tracer()
        wrapped_probe.nothing = scratch.wrap_function(  # type: ignore[method-assign]
            "disk", plain_probe.nothing
        )
        clock = time.perf_counter
        plain, wrapped, within = [], [], []
        for _ in range(rounds):
            scratch.clear()
            begin = clock()
            for _ in range(calls):
                plain_probe.nothing(7, 4)
            plain.append(clock() - begin)
            begin = clock()
            for _ in range(calls):
                wrapped_probe.nothing(7, 4)
            wrapped.append(clock() - begin)
            within.append(sum(scratch.ends) - sum(scratch.starts))
        least = self._least = [
            min(so_far, min(timings) / calls)
            for so_far, timings in zip(self._least, (plain, wrapped, within))
        ]
        self.inside_s = least[2]
        self.outside_s = max(0.0, least[1] - least[0] - least[2])

    def install(self) -> None:
        """Wrap every entry point on the class that defines it."""
        self.calibrate()
        seen: set[tuple[type, str]] = set()
        for layer, cls, names in entry_points():
            for name in names:
                owner = next(k for k in cls.__mro__ if name in vars(k))
                if (owner, name) in seen:
                    continue
                seen.add((owner, name))
                original = vars(owner)[name]
                if not inspect.isfunction(original):
                    raise TypeError(
                        f"{owner.__name__}.{name} is not a plain method; "
                        "the trace's list of entry points is out of date"
                    )
                setattr(owner, name, self.wrap_function(layer, original))
                self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original method back."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Observers: counts taken at the boundary where the work happens
    # ------------------------------------------------------------------
    def _saw_allocate(self, args: tuple[Any, ...], result: Any) -> None:
        self.counts["buddy.pages_allocated"] += args[1]

    def _saw_ops(self, kinds: Any, result: Any) -> None:
        counts = self.counts
        counts["exec.batches"] += 1
        for kind, cost in zip(kinds, result.op_costs_ms):
            counts["exec.ops"] += 1
            counts[f"ops.{kind}"] += 1
            counts[f"sim_ms.{kind}"] += cost

    def _saw_run_batch(self, args: tuple[Any, ...], result: Any) -> None:
        self._saw_ops((op.kind for op in args[3]), result)

    def _saw_run_multi(self, args: tuple[Any, ...], result: Any) -> None:
        self._saw_ops((mop.op.kind for mop in args[2]), result)

    def _saw_submit_many(self, args: tuple[Any, ...], result: Any) -> None:
        store, mops = args[0], args[1]
        self.counts["shard.batches"] += 1
        self.counts["shard.shards"] += len({mop.oid % store.n_shards for mop in mops})

    # ------------------------------------------------------------------
    # Measured range and folding
    # ------------------------------------------------------------------
    def begin_measure(self) -> int:
        """Start of the measured windows; returns the next span index."""
        if self._stack != [-1]:
            raise RuntimeError("measurement began inside an open span")
        self.counts.clear()
        self.measuring = True
        return len(self.starts)

    def end_measure(self) -> int:
        self.measuring = False
        return len(self.starts)

    def fold(self, lo: int, hi: int) -> PassTrace:
        """Per-layer calls and self time of the spans in ``[lo, hi)``,
        with the wrappers' calibrated cost taken out."""
        starts, ends = self.starts, self.ends
        fn_ids, parents, names = self.fn_ids, self.parents, self.names
        inside, per_span = self.inside_s, self.inside_s + self.outside_s
        covered = 0.0
        n_fns = len(names)
        calls = [0] * n_fns
        self_s = [0.0] * n_fns
        #: Per span: seconds its children took in it, and its descendants.
        child_s = [0.0] * (hi - lo)
        below = [0] * (hi - lo)
        manager_ids = {i for i, (layer, _) in enumerate(names) if layer == "manager"}
        inclusive: dict[str, list[float]] = defaultdict(list)
        # Children follow their parent in the arrays, so walking backwards
        # sees every child's duration before the parent needs the sum.
        for index in range(hi - 1, lo - 1, -1):
            duration = ends[index] - starts[index]
            fn_id = fn_ids[index]
            calls[fn_id] += 1
            self_s[fn_id] += duration - inside - child_s[index - lo]
            parent = parents[index]
            if parent >= lo:
                child_s[parent - lo] += duration + per_span - inside
                below[parent - lo] += below[index - lo] + 1
            else:
                covered += duration + per_span - inside
            if fn_id in manager_ids:
                inclusive[names[fn_id][1]].append(
                    duration - inside - below[index - lo] * per_span
                )
        layer_calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        by_fn: dict[tuple[str, str], tuple[int, float]] = {}
        for fn_id, (layer, name) in enumerate(names):
            if not calls[fn_id]:
                continue
            layer_calls[layer] += calls[fn_id]
            layer_self[layer] += self_s[fn_id]
            seen_calls, seen_self = by_fn.get((layer, name), (0, 0.0))
            by_fn[(layer, name)] = (
                seen_calls + calls[fn_id], seen_self + self_s[fn_id]
            )
        return PassTrace(
            spans=hi - lo,
            calls=layer_calls,
            self_s={layer: max(0.0, seconds) for layer, seconds in layer_self.items()},
            by_fn=by_fn,
            covered_s=covered,
            manager_p50_s={
                name: max(0.0, statistics.median(values))
                for name, values in inclusive.items()
            },
            journal_io_calls=(
                self._journal_io_calls(lo, hi) if layer_calls["atomic"] else 0
            ),
            counts=dict(self.counts),
        )

    def _journal_io_calls(self, lo: int, hi: int) -> int:
        """Charged disk spans the commit protocol itself issued."""
        fn_ids, parents, names = self.fn_ids, self.parents, self.names
        # 1 = under an atomic span, 2 = under a manager span (wins).
        under = bytearray(hi - lo)
        flag_of = [
            2 if layer == "manager" else 1 if layer == "atomic" else 0
            for layer, _ in names
        ]
        charged = [
            layer == "disk" and name in _CHARGED_DISK for layer, name in names
        ]
        total = 0
        for index in range(lo, hi):
            parent = parents[index]
            if parent >= lo:
                inherited = under[parent - lo]
                own = flag_of[fn_ids[parent]]
                under[index - lo] = max(inherited, own)
            if charged[fn_ids[index]] and under[index - lo] == 1:
                total += 1
        return total

    def clear(self) -> None:
        """Drop recorded spans (between passes; wrappers stay installed)."""
        if self._stack != [-1]:
            raise RuntimeError("cannot clear spans inside an open span")
        for column in (self.starts, self.ends, self.fn_ids, self.parents):
            del column[:]
