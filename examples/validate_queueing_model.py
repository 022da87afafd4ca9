#!/usr/bin/env python
"""Validate the analytic interval model against discrete-event simulation.

The production environment uses closed-form M/M/c-style latency estimates
per 1-second interval (fast enough for 10 000-step RL runs). This example
cross-checks that analytic model against a per-request, event-driven
simulation of the same operating points, printing p99 from both sides
across the load range — the two should agree in shape and knee position.

Run:  python examples/validate_queueing_model.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.textplot import sparkline
from repro.cluster.environment import make_cluster_node
from repro.server.machine import CoreAssignment
from repro.services.profiles import get_profile
from repro.sim.discrete_event import simulate_service_point
from repro.sim.node import EnvironmentConfig


def main() -> None:
    profile = get_profile("masstree")
    cores, freq = 18, 2.0
    fractions = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)

    print(f"masstree on {cores} cores @ {freq} GHz — p99 latency (ms)")
    print(f"{'load':>5s} {'analytic':>9s} {'discrete-event':>15s} {'ratio':>6s}")
    analytic_series, des_series = [], []
    for fraction in fractions:
        arrival = fraction * profile.max_load_rps
        # One interval of masstree alone on the whole socket at the top
        # DVFS state, at exactly ``arrival`` and without latency noise.
        env = make_cluster_node(["masstree"], 3, EnvironmentConfig(latency_noise_std=0.0))
        env.load_generators["masstree"].set_rate(arrival)
        top = len(env.spec.dvfs) - 1
        full = {"masstree": CoreAssignment(tuple(env.socket_core_ids), freq_index=top)}
        analytic = env.step(full).observations["masstree"].p99_ms
        stats = simulate_service_point(
            profile, arrival, cores=cores, frequency_ghz=freq, max_frequency_ghz=freq,
            rng=np.random.default_rng(5), duration_s=120.0, warmup_s=15.0,
        )
        des = stats.p99_latency_ms
        analytic_series.append(analytic)
        des_series.append(des)
        print(f"{fraction * 100:4.0f}% {analytic:9.2f} {des:15.2f} {analytic / des:6.2f}")

    print()
    print(f"analytic      {sparkline(analytic_series)}")
    print(f"discrete-event {sparkline(des_series)}")
    print("(both curves should show the same flat region and knee)")


if __name__ == "__main__":
    main()
