"""Benchmark: regenerate Figure 8 (Twig-S transfer learning)."""

import numpy as np
from conftest import SCALE, run_artifact


def test_fig08_transfer_s(benchmark):
    result = run_artifact(benchmark, "fig08")
    # Shape: with a transferred representation the agent reaches the QoS
    # threshold at least as fast as learning from scratch.
    for service, curve in result.curves.items():
        transfer = curve.steps_to_qos(True, result.qos_threshold)
        scratch = curve.steps_to_qos(False, result.qos_threshold)
        slack = 2.0 if SCALE == "quick" else 1.25
        if transfer > 0 and scratch > 0:
            assert transfer <= scratch * slack, (service, transfer, scratch)
        # Late-window QoS is healthy either way.
        qos_floor = 50.0 if SCALE == "quick" else 70.0
        assert np.mean(curve.with_transfer_qos[-2:]) > qos_floor, service
