"""Benchmark: regenerate Figure 12 (core mapping distributions, colocated)."""

from conftest import SCALE, run_artifact


def test_fig12_mapping_coloc(benchmark):
    result = run_artifact(benchmark, "fig12")
    # Shape (paper): PARTIES keeps nudging its mapping (wider allocation
    # distribution) while Twig-C holds a stable one. At quick scale the
    # undertrained agent still wanders, so the slack is wider.
    slack = 2.5 if SCALE == "quick" else 1.5
    for service, spread in result.allocation_spread["twig-c"].items():
        assert spread <= result.allocation_spread["parties"][service] + slack, service
    qos = result.summaries["twig-c"].qos_guarantee
    assert min(qos.values()) > (50.0 if SCALE == "quick" else 75.0)
