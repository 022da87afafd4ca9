"""Benchmark: regenerate Figure 11 (varying load, colocated)."""

from conftest import run_artifact


def test_fig11_varying_c(benchmark):
    result = run_artifact(benchmark, "fig11")
    # Shape: Twig-C's core allocation tracks the ramp monotonically —
    # higher load levels never get fewer cores (allowing small noise).
    levels = result.levels
    if len(levels) >= 3:
        lowest = result.twig_cores_by_level[levels[0]]
        highest = result.twig_cores_by_level[levels[-1]]
        assert highest >= lowest - 0.5
