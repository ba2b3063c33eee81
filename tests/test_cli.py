"""Tests for the repro-experiments command-line interface."""

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


def test_help_documents_jobs(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "--jobs" in out
    assert "bit-identical" in out


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
    ["chaos", "--shards", "2", "--jobs", "0"],
    ["chaos", "--shards", "2", "--jobs", "-3"],
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


def test_chaos_jobs_and_table_work_without_shards(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main(["chaos", "--scheme", "eos", "--table", "t.tsv"]) == 0
    assert main(["chaos", "--scheme", "eos", "--jobs", "4"]) == 0
    assert capsys.readouterr().out.count("sweep CLEAN") == 2
    rows = (tmp_path / "t.tsv").read_text().splitlines()
    assert rows[0].split("\t")[:2] == ["scheme", "target"]
    assert any(row.startswith("eos\tappend\t") for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["tables23", "nosuch"],
    ["tables23", "--timeline", "t.jsonl", "--timeline-every-ops", "0"],
    ["tables23", "--jobs", "0"],
    ["tables23", "--jobs", "-2"],
    ["tables23", "--jobs", "2", "--timeout", "-1"],
    ["tables23", "--timeout", "0"],
    ["tables23", "--retries", "-3"],
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


def test_trace_and_timeline_do_not_depend_on_jobs(tmp_path, capsys):
    dumps = []
    for jobs in ("1", "2"):
        common.clear()
        trace = tmp_path / f"trace-{jobs}.jsonl"
        timeline = tmp_path / f"timeline-{jobs}.jsonl"
        assert main([
            "fig5", "fig7-8", "--jobs", jobs,
            "--trace", str(trace), "--timeline", str(timeline),
        ]) == 0
        dumps.append((trace.read_bytes(), timeline.read_bytes()))
    capsys.readouterr()
    assert dumps[0][0] == dumps[1][0]
    assert dumps[0][1] == dumps[1][1]
