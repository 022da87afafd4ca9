"""Benchmark: regenerate Figure 13 (Twig-C vs PARTIES vs Static, all pairs)."""

import numpy as np
from conftest import SCALE, run_artifact


def test_fig13_twig_c_fixed(benchmark):
    result = run_artifact(benchmark, "fig13")
    # Shape: both managers save energy relative to static colocation, and
    # each pair's colocated maximum is below the solo maximum.
    assert result.average_normalized_energy("twig-c") < 1.0
    assert result.average_normalized_energy("parties") < 1.0
    assert all(0.1 <= m <= 1.0 for m in result.colocated_max.values())
    # QoS stays high for Twig-C across the cells.
    qos = [
        np.mean(list(cell["twig-c"].qos_guarantee.values()))
        for cell in result.cells.values()
    ]
    assert float(np.mean(qos)) > (65.0 if SCALE == "quick" else 80.0)
