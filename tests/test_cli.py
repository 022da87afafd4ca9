"""Tests for the command-line interface."""

import importlib
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.common import HARNESS
from repro.experiments.registry import REGISTRY, SCALES, config_for


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
    quick = config_for("fig05", "quick")
    default = config_for("fig05", "default")
    assert len(quick.services) < len(default.services)
    assert config_for("tab03", "quick") is None  # uses module default


def test_every_scale_table_maps_the_three_scales():
    assert list(HARNESS) == list(SCALES)
    for experiment_id, entry in REGISTRY.items():
        configs = getattr(importlib.import_module(entry.module), "CONFIGS", None)
        if experiment_id in ("tab03", "mem"):
            assert configs is None
        else:
            assert list(configs) == list(SCALES), experiment_id


@pytest.mark.parametrize("experiment_id", ["fig05", "tab03"])
def test_config_for_refuses_an_unknown_scale(experiment_id):
    with pytest.raises(ConfigurationError, match="unknown scale"):
        config_for(experiment_id, "huge")


def test_registry_imports_no_experiment_module():
    # Every process that imports repro.experiments loads the registry.
    modules = sorted(entry.module for entry in REGISTRY.values())
    code = (
        f"import sys; sys.path[:0] = {sys.path!r}; import repro.experiments.registry; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


class _Table:
    def format_table(self):
        return "table"


def _capture_runs(monkeypatch):
    """Replace the CLI's ``run_experiment``; return the (id, config) list
    of every call."""
    handed = []

    def run_experiment(experiment_id, config):
        handed.append((experiment_id, config))
        return _Table()

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    return handed


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_run_hands_over_the_registry_config(monkeypatch, capsys, experiment_id, scale):
    handed = _capture_runs(monkeypatch)
    assert main(["run", experiment_id, "--scale", scale]) == 0
    assert handed == [(experiment_id, config_for(experiment_id, scale))]


def test_run_cluster_and_hier_flags_override(monkeypatch, capsys):
    handed = _capture_runs(monkeypatch)
    flags = ["--nodes", "1", "--seed", "3", "--balancer", "power_of_two",
             "--traffic", "steady", "--levels", "3", "--budget-period", "2"]
    assert main(["run", "cluster", *flags]) == 0
    assert main(["run", "hier", "--scale", "default", *flags]) == 0
    common = dict(num_nodes=1, seed=3, balancer="power_of_two", traffic="steady",
                  regions=("r0",))
    assert handed == [
        ("cluster", replace(config_for("cluster", "quick"), **common)),
        ("hier", replace(config_for("hier", "default"), **common, levels=3, budget_period=2)),
    ]


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
