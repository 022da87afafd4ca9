"""Benchmark: regenerate Figure 5 (Twig-S vs Hipster/Heracles/Static)."""

from conftest import SCALE, run_artifact

from repro.experiments.common import HARNESS


def test_fig05_twig_s_fixed(benchmark):
    result = run_artifact(benchmark, "fig05")
    # Shape: every manager keeps a high QoS guarantee, Twig-S undercuts
    # Heracles on energy (the paper's strongest margin, 38%).
    qos_floor = 80.0 if HARNESS[SCALE].twig_steps < 4000 else 90.0
    assert result.average_qos("twig-s") > qos_floor
    assert result.average_normalized_energy("twig-s") < result.average_normalized_energy(
        "heracles"
    )
    assert result.average_normalized_energy("twig-s") < 1.0
