"""Tests for the command-line interface."""

import pytest

from repro.cli import _config_for, build_parser, main


def test_list_prints_all_artifacts(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in ("fig01", "tab02", "fig13", "mem"):
        assert experiment_id in out


def test_capacity_prints_platform(capsys):
    assert main(["capacity"]) == 0
    out = capsys.readouterr().out
    assert "masstree" in out
    assert "2 x 18 cores" in out


def test_run_dispatches_fast_experiment(capsys):
    assert main(["run", "mem"]) == 0
    out = capsys.readouterr().out
    assert "Twig BDQ" in out


def test_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


def test_config_for_scales():
    quick = _config_for("fig05", "quick")
    default = _config_for("fig05", "default")
    assert len(quick.services) < len(default.services)
    assert _config_for("tab03", "quick") is None  # uses module default


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("flags", [
    ["--engine", "shard"], ["--workers", "2"],
    ["--engine", "serial"], ["--engine", "vector"], ["--engine", "auto"],
])
def test_run_refuses_the_removed_shard_engine_flags(flags):
    # The fleet engine is not selectable: argparse refuses every --engine.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "cluster", *flags])


def test_run_jobs_flag_parses():
    args = build_parser().parse_args(["run", "mem", "tab02", "--jobs", "4"])
    assert args.jobs == 4
    assert build_parser().parse_args(["run", "mem"]).jobs == 1


def test_run_parallel_batch_prints_both_tables(capsys, tmp_path):
    assert main(["run", "mem", "tab02", "--jobs", "2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== mem (ok) ==" in out
    assert "== tab02 (ok) ==" in out
