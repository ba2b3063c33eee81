"""Shared random-update runs behind Figures 7-12 and Tables 2-3.

One run fixes (scheme, setting, mean operation size) and executes the
40/30/30 read/insert/delete mix over a freshly built object, collecting
per-window averages.  Figures 7/8 read the utilization column, Figures
9/10 the read-cost column, Figures 11/12 the insert-cost column, and the
delete-cost series reproduces the trends the paper relegates to its
technical report.  Results are memoized so the different figure harnesses
share runs instead of recomputing them.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.experiments.common import (
    BUILD_CHUNK_BYTES,
    Scale,
    build_object,
    make_store,
    memoized,
    resolve_scale,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WindowStats, WorkloadRunner

#: Seed used for every run (deterministic experiments).
WORKLOAD_SEED = 1992


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Identity of one random-update run."""

    scheme: str
    setting: int  # ESM leaf pages, EOS threshold; ignored for Starburst
    mean_op: int
    object_bytes: int
    n_ops: int
    window: int
    shadowing: bool = True


@dataclasses.dataclass
class RunResult:
    """Windows of one random-update run."""

    key: RunKey
    windows: list[WindowStats]

    @property
    def ops_marks(self) -> list[int]:
        """Cumulative operation counts at each mark."""
        return [w.ops_done for w in self.windows]

    def utilizations(self) -> list[float]:
        """Storage utilization at each mark (Figures 7/8)."""
        return [w.utilization for w in self.windows]

    def read_costs_ms(self) -> list[float]:
        """Average read I/O cost per window (Figures 9/10, Table 2)."""
        return [w.avg_read_ms for w in self.windows]

    def insert_costs_ms(self) -> list[float]:
        """Average insert I/O cost per window (Figures 11/12, Table 3)."""
        return [w.avg_insert_ms for w in self.windows]

    def delete_costs_ms(self) -> list[float]:
        """Average delete I/O cost per window (tech-report graphs)."""
        return [w.avg_delete_ms for w in self.windows]

    def steady_read_ms(self) -> float:
        """Read cost averaged over the second half of the run."""
        return _steady([w for w in self.windows], "read")

    def steady_insert_ms(self) -> float:
        """Insert cost averaged over the second half of the run."""
        return _steady([w for w in self.windows], "insert")

    def steady_delete_ms(self) -> float:
        """Delete cost averaged over the second half of the run."""
        return _steady([w for w in self.windows], "delete")


def _steady(windows: list[WindowStats], kind: str) -> float:
    half = windows[len(windows) // 2 :] or windows
    count = sum(getattr(w, f"{kind}s") for w in half)
    total = sum(getattr(w, f"{kind}_ms_total") for w in half)
    return total / count if count else 0.0


def make_run_key(
    scheme: str,
    setting: int,
    mean_op: int,
    scale: Scale,
    shadowing: bool = True,
) -> RunKey:
    """The canonical run identity for one (scheme, setting, op-size) point.

    Shared by :func:`run_random_ops` and the parallel runner's binding,
    so a run computed in a worker process primes exactly the entry the
    figure assembly will look up.
    """
    n_ops = scale.starburst_ops if scheme == "starburst" else scale.n_ops
    window = max(1, n_ops // scale.marks) if scale.marks else n_ops
    return RunKey(
        scheme=scheme,
        setting=setting,
        mean_op=mean_op,
        object_bytes=scale.object_bytes,
        n_ops=n_ops,
        window=window,
        shadowing=shadowing,
    )


def compute_run(key: RunKey, config: SystemConfig = PAPER_CONFIG) -> RunResult:
    """Execute one random-update run (no memoization).

    Deterministic per point: every run seeds its own
    :class:`WorkloadGenerator` with :data:`WORKLOAD_SEED`, so the result
    does not depend on which process computes it or in what order.
    """
    store = make_store(
        key.scheme,
        leaf_pages=key.setting,
        threshold_pages=key.setting,
        config=config,
        shadowing=key.shadowing,
    )
    oid = build_object(store, key.object_bytes, BUILD_CHUNK_BYTES)
    generator = WorkloadGenerator(
        object_size=store.size(oid),
        mean_op_size=key.mean_op,
        seed=WORKLOAD_SEED,
    )
    runner = WorkloadRunner(store.manager, oid, generator)
    windows = runner.run(key.n_ops, window=key.window)
    return RunResult(key=key, windows=windows)


def run_random_ops(
    scheme: str,
    setting: int,
    mean_op: int,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
    shadowing: bool = True,
) -> RunResult:
    """Run (or fetch the memoized) random-update experiment."""
    scale = scale or resolve_scale()
    key = make_run_key(scheme, setting, mean_op, scale, shadowing)
    return memoized(compute_run, key, config)
