"""Benchmark: regenerate Table III (Twig runtime overhead)."""

from conftest import run_artifact


def test_tab03_overhead(benchmark):
    result = run_artifact(benchmark, "tab03")
    # The paper's overhead bound: well under one 1-second control interval.
    assert result.total_ms < 200.0
    assert result.pmc_bytes_per_service == 352  # matches the paper exactly
