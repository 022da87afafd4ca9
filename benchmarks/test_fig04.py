"""Benchmark: regenerate Figure 4 (Equation-2 power model PAAE)."""

from conftest import run_artifact


def test_fig04_power_paae(benchmark):
    result = run_artifact(benchmark, "fig04")
    # Shape: the first-order model is accurate enough to drive the reward
    # (paper: mean PAAE 5.46%, max 7%; we allow a looser bound since the
    # simulated power surface has stronger cores x DVFS interaction).
    for service, paae in result.overall_paae.items():
        assert paae < 25.0, (service, paae)
        assert result.r2[service] > 0.6, service
