#!/usr/bin/env python
"""Transfer learning: adapt a trained Twig-S agent to a new service.

Reproduces the Section IV / Figure 8 workflow at example scale: train on
Masstree, checkpoint the network, swap the managed service to Xapian with
``Twig.transfer_to`` (which keeps the learned shared representation and
re-randomises only the output layers), and compare the adaptation curve
against an agent learning Xapian from scratch.

Run:  python examples/transfer_learning.py [--pretrain 5000 --adapt 2500]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.core import Twig, TwigConfig
from repro.experiments import run_manager
from repro.server import ServerSpec
from repro.services import ConstantLoad, get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def make_env(service: str, load: float, seed: int, spec: ServerSpec):
    profile = get_profile(service)
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {service: ConstantLoad(profile.max_load_rps, load, rng=np.random.default_rng(seed + 1))},
        np.random.default_rng(seed),
    )


def qos_curve(trace, service: str, bucket: int):
    target = trace.services[service].qos_target_ms
    out = []
    p99 = trace.services[service].p99_ms
    for start in range(0, len(p99), bucket):
        window = np.asarray(p99[start:start + bucket])
        out.append(100.0 * float(np.mean(window <= target)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pretrain", type=int, default=5000)
    parser.add_argument("--adapt", type=int, default=2500)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = ServerSpec()
    masstree = get_profile("masstree")
    xapian = get_profile("xapian")

    # --- pretrain on masstree and checkpoint ------------------------------ #
    config = TwigConfig.fast(
        epsilon_mid_steps=args.pretrain // 2, epsilon_final_steps=args.pretrain
    )
    twig = Twig([masstree], config, np.random.default_rng(42), spec=spec)
    print(f"pretraining on masstree for {args.pretrain} steps ...")
    run_manager(twig, make_env("masstree", args.load, args.seed, spec), args.pretrain)

    checkpoint = Path(tempfile.gettempdir()) / "twig_masstree.npz"
    twig.agent.save(checkpoint)
    print(f"checkpoint saved to {checkpoint}")

    # --- transfer to xapian ------------------------------------------------ #
    twig.transfer_to("masstree", xapian)
    twig.agent.step_count = args.pretrain // 2  # mildly exploratory again
    transfer_trace = run_manager(
        twig, make_env("xapian", args.load, args.seed + 1, spec), args.adapt
    )

    # --- learn xapian from scratch ----------------------------------------- #
    scratch_config = TwigConfig.fast(
        epsilon_mid_steps=args.adapt // 2, epsilon_final_steps=args.adapt
    )
    scratch = Twig([xapian], scratch_config, np.random.default_rng(43), spec=spec)
    scratch_trace = run_manager(
        scratch, make_env("xapian", args.load, args.seed + 1, spec), args.adapt
    )

    bucket = max(args.adapt // 8, 1)
    transfer_curve = qos_curve(transfer_trace, "xapian", bucket)
    scratch_curve = qos_curve(scratch_trace, "xapian", bucket)
    print(f"\nadaptation on xapian ({bucket}-step buckets):")
    print(f"{'bucket end':>10s} {'transfer':>9s} {'scratch':>9s}")
    for i, (t, s) in enumerate(zip(transfer_curve, scratch_curve)):
        print(f"{(i + 1) * bucket:10d} {t:8.1f}% {s:8.1f}%")


if __name__ == "__main__":
    main()
