"""Registry mapping experiment names to their runners."""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.errors import InvalidArgumentError
from repro.experiments import figures, scaling, shard_scaling, summary, tables
from repro.experiments.grid import GRID_BUILDERS, GridPoint, full_grid, grid_for

#: name -> callable returning the experiment's textual report.
EXPERIMENTS: dict[str, Callable[[], str]] = {
    "table1": lambda: tables.table1(),
    "tables23": lambda: "\n\n".join(
        [
            tables.run_starburst_costs().format_table2(),
            tables.run_starburst_costs().format_table3(),
        ]
    ),
    **{
        name: partial(figures.render, name)
        for name in (*figures.SIZE_FIGURES, *figures.METRIC_FIGURES)
    },
    "scaling": scaling.main,
    "shards": shard_scaling.main,
    "summary": summary.main,
}


#: name -> grid builder: the work points the experiment consumes, exposed
#: so :func:`repro.experiments.parallel.precompute` can compute them ahead
#: of the assembly (every name in EXPERIMENTS has an entry; see
#: :mod:`repro.experiments.grid`).
GRIDS = GRID_BUILDERS

__all__ = [
    "CSV_EXPORTS",
    "EXPERIMENTS",
    "GRIDS",
    "GridPoint",
    "PLOTTABLE",
    "export_csv",
    "full_grid",
    "grid_for",
    "run",
    "run_plot",
]


def run(name: str) -> str:
    """Run one experiment by name."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise InvalidArgumentError(f"unknown experiment {name!r}; known: {known}") from None
    return runner()


#: Figure experiments that can additionally render an ASCII chart.
PLOTTABLE: dict[str, Callable[[], str]] = {
    name: lambda name=name: figures.run_sizes(name).format_plot()
    for name in figures.SIZE_FIGURES
}


def run_plot(name: str) -> str:
    """Render one experiment's ASCII chart by name."""
    try:
        plotter = PLOTTABLE[name]
    except KeyError:
        known = ", ".join(sorted(PLOTTABLE))
        raise InvalidArgumentError(
            f"experiment {name!r} has no plot; plottable: {known}"
        ) from None
    return plotter()


#: Figure experiments exportable as CSV series.
CSV_EXPORTS: dict[str, Callable[[], tuple[str, list, dict]]] = {
    name: lambda name=name: figures.run_sizes(name).csv_series()
    for name in figures.SIZE_FIGURES
}


def export_csv(name: str, directory: str) -> str:
    """Write one experiment's series as CSV; returns the file path."""
    from repro.analysis.export import write_series_csv

    try:
        exporter = CSV_EXPORTS[name]
    except KeyError:
        known = ", ".join(sorted(CSV_EXPORTS))
        raise InvalidArgumentError(
            f"experiment {name!r} has no CSV export; known: {known}"
        ) from None
    x_header, xs, series = exporter()
    import os

    return write_series_csv(
        os.path.join(directory, f"{name}.csv"), x_header, xs, series
    )
