"""Tests for the repro-experiments command-line interface."""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import common
from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    common.clear()
    yield
    common.clear()


def test_single_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "33 milliseconds" in out


def test_multiple_experiments(capsys):
    assert main(["table1", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Figure 5" in out


def test_unknown_experiment_raises(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fig99"])
    assert excinfo.value.code == 2
    assert "unknown experiment(s) fig99" in capsys.readouterr().err


def test_list_flag_runs_nothing(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out
    assert "fig5" in out
    assert "grid points" in out
    assert "tiny" in out and "paper" in out
    assert "Figure 5" not in out  # nothing actually ran


def test_help_documents_list(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "--list prints the known experiments" in out
    assert "REPRO_SCALE" in out


def test_help_lists_experiments(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "fig5" in out


def test_plot_flag_renders_chart(capsys):
    assert main(["--plot", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "o=ESM 1p" in out  # the ASCII chart legend


def test_registry_plot_unknown():
    from repro.experiments.registry import run_plot

    with pytest.raises(ValueError):
        run_plot("table1")


def test_all_registered_experiments_run_at_tiny_scale(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for marker in ("Table 1", "Figure 5", "Figure 6", "Table 2",
                   "Section 4.6 summary", "Scaling with object size"):
        assert marker in out


def test_report_generation(tmp_path):
    from repro.experiments.report import write_report

    path = str(tmp_path / "REPORT.md")
    write_report(path, names=("table1", "fig5"))
    text = open(path).read()
    assert text.startswith("# Reproduction report")
    assert "Table 1" in text
    assert "Figure 5" in text
    assert "o=ESM 1p" in text  # the ASCII chart rode along


def test_report_unknown_experiment(tmp_path):
    from repro.experiments.report import build_report

    with pytest.raises(ValueError):
        build_report(names=("fig99",))


@pytest.mark.parametrize("argv", [
    ["chaos", "--shards", "-3"],
    ["fsck", "--shards", "-1"],
    ["chaos", "--shards", "2", "--op", "delete"],
    ["chaos", "--shards", "2", "--scale", "small"],
    ["chaos", "--shards", "2", "--table", "no-such-dir/t.tsv"],
])
def test_out_of_range_shard_flags_are_usage_errors(
    argv, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "CLEAN" not in captured.out  # rejected before any sweep ran


def test_chaos_table_works_without_shards(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["chaos", "--scheme", "eos", "--table", "t.tsv"]) == 0
    assert capsys.readouterr().out.count("sweep CLEAN") == 1
    rows = (tmp_path / "t.tsv").read_text().splitlines()
    assert rows[0].split("\t")[:2] == ["scheme", "target"]
    assert any(row.startswith("eos\tappend\t") for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["tables23", "nosuch"],
    ["tables23", "--timeline", "t.jsonl", "--timeline-every-ops", "0"],
    ["table1", "--timeline-every-ops", "5"],
])
def test_bad_experiment_arguments_are_usage_errors(
    argv, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""  # rejected before any experiment ran


def test_unknown_repro_scale_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "huge")
    with pytest.raises(SystemExit) as excinfo:
        main(["fig5"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unknown scale 'huge'" in captured.err
    assert "tiny" in captured.err and "paper" in captured.err
    assert captured.out == ""  # rejected before any experiment ran


def test_trace_and_timeline_match_the_golden(tmp_path, monkeypatch, capsys):
    """The committed checksums of three tiny-scale observed runs."""
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["fig5", "--trace", "trace-fig5.jsonl"],
        ["shards", "--trace", "trace-shards.jsonl"],
        ["fig7-8", "--timeline", "timeline-fig7-8.jsonl"],
    ):
        common.clear()
        assert main(argv) == 0
    capsys.readouterr()
    golden = Path(__file__).parent / "golden" / "obs-tiny.sha256"
    for line in golden.read_text().splitlines():
        digest, name = line.split()
        observed = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert observed == digest, name
