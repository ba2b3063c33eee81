"""Tests for the ASCII figure rendering."""

import pytest

from repro.analysis.plot import ascii_plot


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        out = ascii_plot(
            [1, 2, 3],
            {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
            title="T",
        )
        assert out.startswith("T\n")
        assert "o=a" in out
        assert "x=b" in out
        assert "o" in out.splitlines()[1] or any(
            "o" in line for line in out.splitlines()
        )

    def test_extremes_on_first_and_last_rows(self):
        out = ascii_plot([0, 1], {"s": [0.0, 10.0]}, height=5)
        lines = out.splitlines()
        assert "10.0" in lines[0]
        assert "0.000" in lines[4]

    def test_log_scale(self):
        out = ascii_plot([1, 2, 3], {"s": [1.0, 10.0, 100.0]}, y_label="ms")
        assert out.endswith("y: ms (log scale)")
        # In log scale the three decade-spaced points sit evenly.
        marker_rows = _marker_rows(out)
        assert len(marker_rows) == 3
        spacing = [b - a for a, b in zip(marker_rows, marker_rows[1:])]
        assert abs(spacing[0] - spacing[1]) <= 1

    def test_non_positive_data_is_plotted_linearly(self):
        # No logarithm places 0.0, so the axis is linear and its label
        # does not claim a log scale.
        out = ascii_plot(
            [1, 2, 3], {"s": [0.0, 50.0, 100.0]}, height=5, y_label="ms"
        )
        assert out.endswith("y: ms")
        # Linearly, 50 sits on the middle row of five.
        assert _marker_rows(out) == [0, 2, 4]

    def test_constant_series(self):
        out = ascii_plot([1, 2], {"s": [5.0, 5.0]})
        assert "5.0" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot([], {})
        with pytest.raises(ValueError):
            ascii_plot([1], {"s": []})

    def test_x_axis_labels(self):
        out = ascii_plot([3, 512], {"s": [1.0, 2.0]})
        last_lines = "\n".join(out.splitlines()[-4:])
        assert "3" in last_lines
        assert "512" in last_lines

    def test_many_series_get_distinct_markers(self):
        series = {f"s{i}": [float(i), float(i + 1)] for i in range(5)}
        out = ascii_plot([1, 2], series)
        for marker in "ox+*#":
            assert marker in out


def _marker_rows(out: str) -> list[int]:
    """Rows of the plotting area (between the pipes) holding an ``o``."""
    grid_rows = [
        line[line.index("|") + 1 : line.rindex("|")]
        for line in out.splitlines()
        if line.count("|") == 2
    ]
    return [i for i, row in enumerate(grid_rows) if "o" in row]
