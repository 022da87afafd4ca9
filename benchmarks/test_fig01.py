"""Benchmark: regenerate Figure 1 (PMC vs IPC latency prediction)."""

from conftest import run_artifact


def test_fig01_pmc_prediction(benchmark):
    result = run_artifact(benchmark, "fig01")
    # Shape assertions: PMCs beat IPC on error spread for every service.
    for service, stats in result.per_service.items():
        assert stats["pmc"].std_error_ms < stats["ipc"].std_error_ms, service
        assert result.zero_density_gain[service] > 1.2, service
