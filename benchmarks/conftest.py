"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper reports.  The default scale is reduced
(``REPRO_SCALE=small``); run with ``REPRO_SCALE=paper`` to reproduce the
paper-size experiments recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import Scale, resolve_scale


@pytest.fixture(scope="session")
def scale() -> Scale:
    """The experiment scale for this benchmark session."""
    return resolve_scale()


@pytest.fixture
def report(capsys):
    """Print an experiment report so it survives pytest's capture."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return emit
