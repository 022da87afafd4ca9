"""Benchmark: regenerate Table I (PMC selection & importance ranking)."""

from conftest import run_artifact

from repro.pmc.counters import COUNTER_NAMES


def test_tab01_pmc_selection(benchmark):
    result = run_artifact(benchmark, "tab01")
    assert sorted(result.selection.importance_rank.values()) == list(range(1, 12))
    # A small number of components explains 95% of the covariance (the
    # counters are heavily correlated, which is the paper's premise).
    assert result.selection.n_components <= len(COUNTER_NAMES) // 2
