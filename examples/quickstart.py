#!/usr/bin/env python
"""Quickstart: manage one latency-critical service with Twig-S.

Builds the simulated dual-socket server, launches Masstree at 50 % of its
maximum load, trains a Twig-S agent online (scaled-down schedule), and
prints QoS guarantee / power / chosen allocation as learning progresses,
ending with a comparison against the static baseline.

Run:  python examples/quickstart.py [--steps 6000]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import StaticManager
from repro.core import Twig, TwigConfig
from repro.experiments import run_manager
from repro.server import ServerSpec
from repro.services import ConstantLoad, get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def make_environment(seed: int, spec: ServerSpec, load_fraction: float):
    profile = get_profile("masstree")
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {
            "masstree": ConstantLoad(
                profile.max_load_rps, load_fraction, rng=np.random.default_rng(seed + 1)
            )
        },
        np.random.default_rng(seed),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=6000)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = ServerSpec()
    profile = get_profile("masstree")
    print(f"server: {spec.sockets} sockets x {spec.cores_per_socket} cores, "
          f"DVFS {spec.dvfs.min_ghz}-{spec.dvfs.max_ghz} GHz")
    print(f"service: masstree, QoS target {profile.qos_target_ms} ms, "
          f"load {args.load * 100:.0f}% of {profile.max_load_rps:.0f} rps\n")

    # --- static baseline ------------------------------------------------- #
    static_env = make_environment(args.seed, spec, args.load)
    static = StaticManager(["masstree"], spec=spec)
    static_trace = run_manager(static, static_env, 300)
    static_power = static_trace.mean_power_w()
    print(f"static baseline: qos {static_trace.qos_guarantee('masstree'):5.1f}%  "
          f"power {static_power:5.1f} W\n")

    # --- Twig-S ------------------------------------------------------------ #
    config = TwigConfig.fast(
        epsilon_mid_steps=args.steps // 2, epsilon_final_steps=int(args.steps * 0.8)
    )
    twig = Twig([profile], config, np.random.default_rng(42), spec=spec)
    env = make_environment(args.seed, spec, args.load)
    trace = run_manager(twig, env, args.steps)

    print("twig-s learning progress:")
    bucket = max(args.steps // 8, 1)
    for start in range(0, args.steps, bucket):
        window = slice(start, start + bucket)
        p99 = np.asarray(trace.services["masstree"].p99_ms[window])
        qos = 100.0 * np.mean(p99 <= profile.qos_target_ms)
        power = np.mean(trace.true_power_w[window])
        cores = np.mean(trace.services["masstree"].cores[window])
        freq = np.mean(trace.services["masstree"].frequency_ghz[window])
        print(f"  steps {start:5d}-{start + bucket:5d}: qos {qos:5.1f}%  "
              f"power {power:5.1f} W  alloc {cores:4.1f} cores @ {freq:4.2f} GHz")

    final_power = trace.mean_power_w(300)
    print(f"\nfinal window: qos {trace.qos_guarantee('masstree', 300):5.1f}%  "
          f"power {final_power:5.1f} W  "
          f"({100 * (1 - final_power / static_power):.1f}% energy saving vs static)")


if __name__ == "__main__":
    main()
