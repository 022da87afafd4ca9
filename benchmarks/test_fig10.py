"""Benchmark: regenerate Figure 10 (varying load, img-dnn)."""

from conftest import SCALE, run_artifact


def test_fig10_varying_s(benchmark):
    result = run_artifact(benchmark, "fig10")
    twig = result.summaries["twig-s"]
    heracles = result.summaries["heracles"]
    # Shape (paper): Heracles holds QoS by brute force but burns more
    # energy than Twig-S under load variation.
    slack = 0.05 if SCALE == "quick" else 0.0
    assert twig.normalized_energy < heracles.normalized_energy + slack
    qos_floor = 65.0 if SCALE == "quick" else 80.0
    assert list(twig.qos_guarantee.values())[0] > qos_floor
