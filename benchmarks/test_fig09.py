"""Benchmark: regenerate Figure 9 (Twig-C transfer learning)."""

import numpy as np
from conftest import SCALE, run_artifact


def test_fig09_transfer_c(benchmark):
    result = run_artifact(benchmark, "fig09")
    # Shape: after the swap, the transferred agent recovers a decent QoS
    # guarantee for the new service by the end of the adaptation window.
    new_floor, kept_floor = (40.0, 50.0) if SCALE == "quick" else (65.0, 75.0)
    assert np.mean(result.transfer_qos_new[-2:]) > new_floor
    # The kept service keeps its QoS through the swap.
    assert np.mean(result.transfer_qos_kept[-2:]) > kept_floor
