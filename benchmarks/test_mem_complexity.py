"""Benchmark: regenerate the Section V-B1 memory-complexity comparison."""

from conftest import run_artifact


def test_mem_complexity(benchmark):
    result = run_artifact(benchmark, "mem")
    # Paper's claims: the hypothetical Hipster table is in the terabytes,
    # Twig's network stays under 5 MB.
    assert result.hipster_hypothetical_bytes > 1e12
    assert result.twig_bytes < 5e6
    assert result.twig_parameter_count < 1_000_000
