#!/usr/bin/env python
"""Colocation scenario: Twig-C vs PARTIES vs Static on Masstree + Moses.

This is the paper's motivating workload mix: Moses hammers memory
bandwidth and cache capacity while Masstree is extremely sensitive to
bandwidth interference. The script first demonstrates the interference
itself (Masstree's tail latency with and without Moses next door), then
runs the three managers and prints QoS guarantee and energy normalised to
the static mapping.

Run:  python examples/colocated_services.py [--twig-steps 9000]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import PartiesManager, StaticManager
from repro.core import Twig, TwigConfig
from repro.experiments import run_manager
from repro.server import CoreAssignment, ServerSpec
from repro.services import ConstantLoad, get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def make_env(seed: int, spec: ServerSpec, services, fractions):
    profiles = [get_profile(s) for s in services]
    generators = {
        s: ConstantLoad(
            get_profile(s).max_load_rps, f, rng=np.random.default_rng(seed + 10 + i)
        )
        for i, (s, f) in enumerate(zip(services, fractions))
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec), profiles, generators, np.random.default_rng(seed)
    )


def show_interference(spec: ServerSpec, seed: int) -> None:
    print("interference demo — masstree p99 with 18 cores @ 2.0 GHz:")
    for services, fractions, label in (
        (["masstree"], [0.5], "alone @ 50% load"),
        (["masstree", "moses"], [0.5, 0.8], "next to moses @ 80%"),
    ):
        env = make_env(seed, spec, services, fractions)
        cores = tuple(env.socket_core_ids)
        assignment = {
            s: CoreAssignment(cores=cores, freq_index=len(spec.dvfs) - 1)
            for s in services
        }
        p99 = np.median(
            [env.step(assignment).observations["masstree"].p99_ms for _ in range(20)]
        )
        print(f"  {label:24s}: {p99:6.2f} ms")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--twig-steps", type=int, default=9000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = ServerSpec()
    services = ("masstree", "moses")
    fractions = (0.2, 0.5)
    profiles = [get_profile(s) for s in services]
    show_interference(spec, args.seed)

    static_trace = run_manager(
        StaticManager(list(services), spec=spec),
        make_env(args.seed, spec, services, fractions),
        300,
    )
    base = static_trace.mean_power_w()

    parties_trace = run_manager(
        PartiesManager(profiles, np.random.default_rng(3), spec=spec),
        make_env(args.seed, spec, services, fractions),
        1200,
    )

    config = TwigConfig.fast(
        epsilon_mid_steps=args.twig_steps // 3,
        epsilon_final_steps=int(args.twig_steps * 0.7),
    )
    twig = Twig(profiles, config, np.random.default_rng(42), spec=spec)
    twig_trace = run_manager(
        twig, make_env(args.seed, spec, services, fractions), args.twig_steps
    )

    print(f"{'manager':9s} {'masstree qos':>13s} {'moses qos':>10s} "
          f"{'power':>8s} {'vs static':>10s}")
    for name, trace, window in (
        ("static", static_trace, 300),
        ("parties", parties_trace, 600),
        ("twig-c", twig_trace, 600),
    ):
        power = trace.mean_power_w(window)
        print(f"{name:9s} {trace.qos_guarantee('masstree', window):12.1f}% "
              f"{trace.qos_guarantee('moses', window):9.1f}% "
              f"{power:7.1f} W {power / base:9.2f}x")


if __name__ == "__main__":
    main()
