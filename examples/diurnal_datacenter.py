#!/usr/bin/env python
"""Diurnal load: Twig-S riding a day/night cycle.

Data-centre loads follow strong diurnal patterns (Meisner et al.); the
paper evaluates both Twig variants under load variation. This example
drives Img-dnn with a compressed diurnal curve and shows how Twig
modulates cores and DVFS across the cycle after learning, compared to the
static baseline's flat (and expensive) allocation.

Run:  python examples/diurnal_datacenter.py [--steps 8000]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import StaticManager
from repro.core import Twig, TwigConfig
from repro.experiments import run_manager
from repro.server import ServerSpec
from repro.services import DiurnalLoad, get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def make_env(seed: int, spec: ServerSpec, period: int):
    profile = get_profile("img-dnn")
    generator = DiurnalLoad(
        profile.max_load_rps,
        min_fraction=0.15,
        max_fraction=0.85,
        period=period,
        rng=np.random.default_rng(seed + 1),
    )
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {"img-dnn": generator},
        np.random.default_rng(seed),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=8000)
    parser.add_argument("--period", type=int, default=1000, help="diurnal period in steps")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = ServerSpec()
    profile = get_profile("img-dnn")

    static_trace = run_manager(
        StaticManager(["img-dnn"], spec=spec),
        make_env(args.seed, spec, args.period),
        args.period,
    )
    base = static_trace.mean_power_w()

    config = TwigConfig.fast(
        epsilon_mid_steps=args.steps // 3, epsilon_final_steps=int(args.steps * 0.7)
    )
    twig = Twig([profile], config, np.random.default_rng(42), spec=spec)
    trace = run_manager(twig, make_env(args.seed, spec, args.period), args.steps)

    # Fold the last full cycle into phase buckets.
    window = args.period
    arrivals = np.asarray(trace.services["img-dnn"].arrival_rps[-window:])
    cores = np.asarray(trace.services["img-dnn"].cores[-window:])
    freqs = np.asarray(trace.services["img-dnn"].frequency_ghz[-window:])
    power = np.asarray(trace.true_power_w[-window:])
    phases = 8
    print("last diurnal cycle, by phase:")
    print(f"{'phase':>5s} {'load rps':>9s} {'cores':>6s} {'freq':>5s} {'power':>7s}")
    for p in range(phases):
        mask = slice(p * window // phases, (p + 1) * window // phases)
        print(f"{p:5d} {arrivals[mask].mean():9.0f} {cores[mask].mean():6.1f} "
              f"{freqs[mask].mean():5.2f} {power[mask].mean():6.1f} W")

    print(f"\nqos guarantee (last cycle): {trace.qos_guarantee('img-dnn', window):.1f}%")
    print(f"mean power: twig {power.mean():.1f} W vs static {base:.1f} W "
          f"({100 * (1 - power.mean() / base):.1f}% saving)")


if __name__ == "__main__":
    main()
