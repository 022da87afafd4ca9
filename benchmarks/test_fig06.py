"""Benchmark: regenerate Figure 6 (mapping decisions + tardiness, masstree@50%)."""

from conftest import run_artifact


def test_fig06_mapping_single(benchmark):
    result = run_artifact(benchmark, "fig06")
    # Shape: Heracles over-allocates relative to Twig-S (the paper shows it
    # oscillating at 12-13 of 18 cores while cheaper allocations suffice).
    heracles_cores = result.summaries["heracles"].mean_cores["masstree"]
    twig_cores = result.summaries["twig-s"].mean_cores["masstree"]
    assert heracles_cores >= twig_cores - 0.5
    # Tardiness mass sits below 1.0 (QoS met) for Twig.
    hist = result.tardiness_histograms["twig-s"]
    below = hist[: len(hist) // 2].sum()
    assert below > 0.8 * hist.sum()
