"""Benchmark: regenerate Table II (max load and QoS target per service)."""

from conftest import run_artifact


def test_tab02_capacity(benchmark):
    result = run_artifact(benchmark, "tab02")
    # The measured knees must land near the calibrated Table II loads.
    for name, cap in result.per_service.items():
        ratio = cap.max_load_rps / cap.paper_max_load_rps
        assert 0.8 <= ratio <= 1.25, (name, ratio)
