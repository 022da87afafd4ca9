"""Benchmark: regenerate Figure 7 (QoS guarantee over learning time)."""

from conftest import SCALE, run_artifact


def test_fig07_learning_curve(benchmark):
    result = run_artifact(benchmark, "fig07")
    # Shape: both learn; Twig ends the run with a high QoS guarantee
    # without any prior knowledge of the platform.
    assert result.twig_qos[-1] > (70.0 if SCALE == "quick" else 80.0)
    assert result.steps_to_reach("twig", 80.0) > 0
