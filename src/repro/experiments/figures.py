"""Figures 5-12 of the paper, rendered from two sweeps.

* **The size sweep** (Figures 5 and 6, §4.2-4.3).  Figure 5 builds an
  object by successively appending fixed-size chunks, for every append
  size in the paper's sweep, with ESM leaf sizes of 1/4/16/64 pages and
  the (shared) Starburst/EOS growth pattern.  Figure 6 then scans that
  object from the beginning to the end in chunks of the same size: "the
  n-byte scan was performed on the object created by n-byte appends".
  Both report seconds of simulated I/O; with a 1 KB/ms transfer rate the
  best possible scan of 10 MB takes about 10 seconds.
* **The metric sweep** (Figures 7-12, §4.4).  One random-update run per
  (scheme, setting, mean operation size), read out per window as storage
  utilization (Figures 7/8), read I/O cost (9/10), insert I/O cost
  (11/12), or delete I/O cost — the series the paper describes but
  relegates to its technical report ("the trends mentioned for inserts
  are also valid for the delete operations").  Sub-figures a, b and c
  are the mean operation sizes 100 B, 10 KB and 100 KB; each curve is an
  ESM leaf size or an EOS segment size threshold of 1/4/16/64 pages.
  Starburst is omitted because it unconditionally achieves the best
  possible utilization (it completely reorganizes the affected segments
  after each update); Tables 2-3 report its costs.

:data:`SIZE_CURVES` and :data:`SETTING_CURVES` are the sweeps' one
enumeration: the grid (:mod:`repro.experiments.grid`) builds the
figures' points from them, and the renderers below read them back in
the same order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.analysis.plot import ascii_plot
from repro.analysis.report import format_series
from repro.core.config import PAPER_CONFIG, SystemConfig
from repro.core.errors import InvalidArgumentError
from repro.experiments.common import (
    BUILT,
    EOS_THRESHOLDS,
    ESM_LEAF_PAGES,
    KB,
    MEAN_OP_SIZES,
    Scale,
    build_object,
    format_object_size,
    make_store,
    memoized,
    resolve_scale,
)
from repro.experiments.random_ops import RunResult, run_random_ops

#: The size sweep's curves: series name -> (scheme, ESM leaf pages).
#: Starburst stands for EOS too, which grows an object the same way.
SIZE_CURVES: dict[str, tuple[str, int]] = {
    **{f"ESM {pages}p": ("esm", pages) for pages in ESM_LEAF_PAGES},
    "Starburst/EOS": ("starburst", 4),
}

#: The metric sweep's curves: scheme -> (series label, its settings in
#: pages: ESM leaf sizes, EOS segment size thresholds).
SETTING_CURVES: dict[str, tuple[str, tuple[int, ...]]] = {
    "esm": ("leaf", ESM_LEAF_PAGES),
    "eos": ("T", EOS_THRESHOLDS),
}


def compute_build_time(
    scheme: str,
    append_kb: int,
    object_bytes: int,
    leaf_pages: int,
    config: SystemConfig,
) -> float:
    """Measure one build point (no memoization), and keep the object for
    the scan of it (:data:`~repro.experiments.common.BUILT`)."""
    store = make_store(scheme, leaf_pages=leaf_pages, config=config)
    before = store.snapshot()
    oid = build_object(store, object_bytes, append_kb * KB)
    BUILT[scheme, append_kb, object_bytes, leaf_pages, config] = store, oid
    return store.elapsed_ms(before) / 1000.0


def compute_scan_time(
    scheme: str,
    scan_kb: int,
    object_bytes: int,
    leaf_pages: int,
    config: SystemConfig,
) -> float:
    """Measure one scan point (no memoization) on the object its Figure 5
    twin built, or on a new one if there is none.

    The scan chunk is the append size the object was built with, which
    matters for Starburst/EOS, whose structure depends on the size of
    the first append.
    """
    key = (scheme, scan_kb, object_bytes, leaf_pages, config)
    built = BUILT.pop(key, None)
    if built is None:
        store = make_store(scheme, leaf_pages=leaf_pages, config=config)
        built = store, build_object(store, object_bytes, scan_kb * KB)
    store, oid = built
    before = store.snapshot()
    chunk = scan_kb * KB
    position = 0
    size = store.size(oid)
    while position < size:
        take = min(chunk, size - position)
        store.read(oid, position, take)
        position += take
    return store.elapsed_ms(before) / 1000.0


@dataclasses.dataclass(frozen=True)
class SizeFigure:
    """One figure of the size sweep: what a point measures, and labels."""

    kind: str  # the grid point kind: "build" or "scan"
    compute: Callable[..., float]  # one point's simulated seconds
    number: str
    title: str  # of the text report
    chart: str  # title of the ASCII chart
    x_name: str  # "append" or "scan"


#: experiment name -> its size-sweep figure.
SIZE_FIGURES = {
    "fig5": SizeFigure(
        "build", compute_build_time, "5", "object creation time",
        "build time", "append",
    ),
    "fig6": SizeFigure(
        "scan", compute_scan_time, "6", "sequential scan time",
        "scan time", "scan",
    ),
}


@dataclasses.dataclass
class SizeSweep:
    """One size-sweep figure's series for one object size."""

    figure: SizeFigure
    object_bytes: int
    sizes_kb: tuple[int, ...]
    #: series name -> seconds per append (or scan) size
    series: dict[str, list[float]]

    def _title(self, what: str) -> str:
        size = format_object_size(self.object_bytes)
        return f"Figure {self.figure.number}: {size} {what}"

    def format(self) -> str:
        """Render as the textual equivalent of the figure."""
        return format_series(
            f"{self.figure.x_name} KB",
            list(self.sizes_kb),
            self.series,
            title=self._title(
                f"{self.figure.title} (seconds of simulated I/O)"
            ),
        )

    def format_plot(self) -> str:
        """Render as an ASCII chart (log-scaled like the paper's axes)."""
        return ascii_plot(
            list(self.sizes_kb),
            self.series,
            title=self._title(self.figure.chart),
            y_label="seconds",
        )

    def csv_series(self) -> tuple[str, list, dict]:
        """The CSV export's x header, x values and series."""
        return f"{self.figure.x_name}_kb", list(self.sizes_kb), self.series


def run_sizes(
    name: str, scale: Scale | None = None, config: SystemConfig = PAPER_CONFIG
) -> SizeSweep:
    """Run one size-sweep figure ("fig5" or "fig6") at the given scale."""
    scale = scale or resolve_scale()
    figure = SIZE_FIGURES[name]
    series = {
        curve: [
            memoized(
                figure.compute, scheme, kb, scale.object_bytes,
                leaf_pages, config,
            )
            for kb in scale.append_sizes_kb
        ]
        for curve, (scheme, leaf_pages) in SIZE_CURVES.items()
    }
    return SizeSweep(figure, scale.object_bytes, scale.append_sizes_kb, series)


@dataclasses.dataclass(frozen=True)
class Metric:
    """One metric of the metric sweep: its per-window series and title."""

    series: Callable[[RunResult], list[float]]
    title: str


#: metric -> how a random-update run reads out as its curve.
METRICS = {
    "utilization": Metric(RunResult.utilizations, "storage utilization"),
    "read": Metric(RunResult.read_costs_ms, "read I/O cost (ms)"),
    "insert": Metric(RunResult.insert_costs_ms, "insert I/O cost (ms)"),
    "delete": Metric(RunResult.delete_costs_ms, "delete I/O cost (ms)"),
}

#: experiment name -> its panels in print order: (metric, ESM figure,
#: EOS figure), where "{sub}" becomes each mean op size's letter.
METRIC_FIGURES = {
    "fig7-8": (("utilization", "7.{sub}", "8.{sub}"),),
    "fig9-10": (("read", "9.{sub}", "10.{sub}"),),
    "fig11-12": (
        ("insert", "11.{sub}", "12.{sub}"),
        ("delete", "TR (deletes)", "TR (deletes)"),
    ),
}


@dataclasses.dataclass
class MetricSweep:
    """One metric's curves for one scheme and mean operation size."""

    scheme: str
    mean_op: int
    kind: str  # a key of METRICS
    ops_marks: list[int]
    series: dict[str, list[float]]

    def format(self, figure: str) -> str:
        """Render one sub-figure (a/b/c) as text."""
        return format_series(
            "ops",
            self.ops_marks,
            self.series,
            title=(
                f"Figure {figure}: {self.scheme.upper()} "
                f"{METRICS[self.kind].title}, mean op {self.mean_op} bytes"
            ),
        )


def run_metric(
    scheme: str,
    mean_op: int,
    kind: str,
    scale: Scale | None = None,
    config: SystemConfig = PAPER_CONFIG,
) -> MetricSweep:
    """One metric's curves across the scheme's setting sweep."""
    if kind not in METRICS or scheme not in SETTING_CURVES:
        raise InvalidArgumentError(
            f"no {kind!r} sweep of {scheme!r}; metrics: "
            f"{', '.join(METRICS)}; schemes: {', '.join(SETTING_CURVES)}"
        )
    scale = scale or resolve_scale()
    label, settings = SETTING_CURVES[scheme]
    series: dict[str, list[float]] = {}
    for setting in settings:
        result = run_random_ops(scheme, setting, mean_op, scale, config)
        series[f"{label}={setting}p"] = METRICS[kind].series(result)
    return MetricSweep(scheme, mean_op, kind, result.ops_marks, series)


def render(name: str) -> str:
    """The text report of one figure experiment (``fig5`` ... ``fig11-12``)."""
    if name in SIZE_FIGURES:
        return run_sizes(name).format()
    parts = []
    for kind, *figures in METRIC_FIGURES[name]:
        for scheme, figure in zip(SETTING_CURVES, figures):
            for sub, mean_op in zip("abc", MEAN_OP_SIZES):
                sweep = run_metric(scheme, mean_op, kind)
                parts.append(sweep.format(figure.format(sub=sub)))
    return "\n\n".join(parts)
