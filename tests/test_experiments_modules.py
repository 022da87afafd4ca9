"""Smoke tests for the per-artifact experiment modules (tiny configs).

These verify each experiment runs end-to-end, produces a well-formed
Result with a printable table, and satisfies basic sanity invariants. The
full-shape assertions live in benchmarks/ where the budgets are larger.
"""

import importlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, get_entry, run_experiment
from repro.experiments.common import HarnessConfig
from repro.experiments.fig01_pmc_prediction import Fig01Config
from repro.experiments.fig04_power_paae import Fig04Config
from repro.experiments.mem_complexity import MemComplexityConfig
from repro.experiments.tab01_pmc_selection import Tab01Config
from repro.experiments.tab02_capacity import Tab02Config
from repro.experiments.tab03_overhead import Tab03Config


def test_registry_covers_every_artifact():
    expected = {
        "fig01", "tab01", "tab02", "tab03", "fig04", "fig05", "fig06",
        "fig07", "mem", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
        "fleet", "cluster", "hier",
    }
    assert set(REGISTRY) == expected


def test_default_scale_is_the_config_dataclass_default():
    # run_experiment(id) without a config runs the config class defaults;
    # they must be the ``default`` scale, the numbers EXPERIMENTS.md reports.
    with_tables = 0
    for experiment_id, entry in REGISTRY.items():
        configs = getattr(importlib.import_module(entry.module), "CONFIGS", None)
        if configs is None:
            continue
        with_tables += 1
        default = configs["default"]
        assert default == type(default)(), experiment_id
    assert with_tables == len(REGISTRY) - 2  # all but tab03 and mem


def test_registry_unknown_id():
    with pytest.raises(ConfigurationError):
        get_entry("fig99")


def test_fig01_tiny():
    result = run_experiment("fig01", Fig01Config(
        services=("memcached",), samples=300, epochs=60, load_segment=10
    ))
    stats = result.per_service["memcached"]
    assert np.isfinite(stats["pmc"].mean_error_ms)
    assert np.isfinite(stats["ipc"].std_error_ms)
    assert "memcached" in result.format_table()


def test_tab01_tiny():
    result = run_experiment("tab01", Tab01Config(
        services=("masstree",), core_counts=(6, 18), dvfs_indices=(0, 8),
        load_fractions=(0.3, 0.7), seconds_per_point=4,
    ))
    assert sorted(result.selection.importance_rank.values()) == list(range(1, 12))
    assert result.samples_collected > 0
    assert "Table I" in result.format_table()


def test_tab02_tiny():
    result = run_experiment("tab02", Tab02Config(
        services=("masstree",), seconds_per_level=4, step_fraction=0.1
    ))
    cap = result.per_service["masstree"]
    assert cap.max_load_rps > 0
    assert cap.derived_qos_target_ms > 0
    assert "masstree" in result.format_table()


def test_tab03_runs():
    result = run_experiment("tab03", Tab03Config(repeats=3, paper_sized_network=False))
    assert result.gradient_step_ms > 0
    assert result.total_ms > 0
    assert "overhead" in result.format_table()


def test_fig04_tiny():
    result = run_experiment("fig04", Fig04Config(
        services=("masstree",), loads=(0.2, 0.5), n_candidates=300,
        seconds_per_point=2,
    ))
    assert result.overall_paae["masstree"] > 0
    assert -1.0 <= result.r2["masstree"] <= 1.0
    assert "PAAE" in result.format_table()


def test_mem_complexity_values():
    result = run_experiment("mem", MemComplexityConfig())
    assert result.hipster_entries_paper_formula == 25 * 3 ** 30
    assert result.twig_bytes < 5e6
    assert "Twig BDQ" in result.format_table()


@pytest.mark.slow
def test_fig06_quick_harness():
    from repro.experiments.fig06_mapping_single import Fig06Config

    result = run_experiment(
        "fig06", Fig06Config(harness=HarnessConfig.quick())
    )
    assert set(result.summaries) == {"heracles", "hipster", "twig-s"}
    for manager, hist in result.core_histograms.items():
        assert hist.sum() == pytest.approx(1.0), manager
    assert "Figure 6" in result.format_table()
