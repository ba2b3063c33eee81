"""Tests for CSV export of experiment series."""

import pytest

from repro.analysis.export import (
    read_series_csv,
    series_to_csv,
    write_series_csv,
)
from repro.experiments import common
from repro.experiments.registry import export_csv


class TestSeriesCsv:
    def test_layout(self):
        text = series_to_csv("x", [1, 2], {"a": [10, 20], "b": [30, 40]})
        lines = text.strip().splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1] == "1,10,30"
        assert lines[2] == "2,20,40"

    def test_short_series_leave_blanks(self):
        text = series_to_csv("x", [1, 2], {"a": [10]})
        assert text.strip().splitlines()[2] == "2,"

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "sub" / "figX.csv")
        write_series_csv(path, "x", [1, 2], {"a": [1.5, 2.5]})
        x_header, xs, series = read_series_csv(path)
        assert x_header == "x"
        assert xs == ["1", "2"]
        assert series == {"a": [1.5, 2.5]}


class TestRegistryExport:
    def test_fig5_export(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        common.clear()
        path = export_csv("fig5", str(tmp_path))
        x_header, xs, series = read_series_csv(path)
        assert x_header == "append_kb"
        assert "Starburst/EOS" in series
        assert all(value > 0 for value in series["ESM 1p"])

    def test_fig6_export(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        common.clear()
        path = export_csv("fig6", str(tmp_path))
        x_header, xs, series = read_series_csv(path)
        assert x_header == "scan_kb"
        assert xs == ["3", "4", "8", "64"]
        assert "Starburst/EOS" in series
        assert all(value > 0 for value in series["ESM 1p"])

    def test_unknown_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv("table1", str(tmp_path))
