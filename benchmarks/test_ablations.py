"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation trains Twig-S on Masstree at 50 % load with one knob
changed and reports QoS guarantee + normalised energy, quantifying how
much each design ingredient contributes:

- prioritised vs uniform experience replay (Section IV),
- eta-step PMC smoothing on (eta = 5) vs off (eta = 1) (Section III-B1),
- the reward balance theta in {0, 0.5, 1.0} (Equation 1; theta = 0 removes
  the power term entirely, so the agent has no incentive to save energy).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from conftest import SCALE, run_once

from repro.baselines import StaticManager
from repro.core import Twig, TwigConfig
from repro.core.reward import RewardParams
from repro.experiments.common import HARNESS, make_environment
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile

SERVICE = "masstree"
LOAD = 0.5


def _run_variant(config: TwigConfig, steps: int, seed: int = 7) -> Dict[str, float]:
    spec = ServerSpec()
    profile = get_profile(SERVICE)
    env = make_environment([SERVICE], [LOAD], seed, spec)
    twig = Twig([profile], config, np.random.default_rng(42), spec=spec)
    trace = run_manager(twig, env, steps)
    static = run_manager(
        StaticManager([SERVICE], spec=spec),
        make_environment([SERVICE], [LOAD], seed, spec),
        200,
    )
    window = min(300, steps // 4)
    return {
        "qos": trace.qos_guarantee(SERVICE, window),
        "energy": trace.mean_power_w(window) / static.mean_power_w(),
    }


def test_ablations(benchmark):
    harness = HARNESS[SCALE]
    steps = harness.twig_steps
    base = TwigConfig.fast(
        epsilon_mid_steps=harness.twig_epsilon_mid,
        epsilon_final_steps=harness.twig_epsilon_final,
    )
    variants = {
        "baseline (PER, eta=5, theta=0.5)": base,
        "uniform replay": base.scaled(use_prioritized_replay=False),
        "no smoothing (eta=1)": base.scaled(eta=1),
        "theta=0 (no power reward)": base.scaled(reward=RewardParams(theta=1e-9)),
        "theta=1.0": base.scaled(reward=RewardParams(theta=1.0)),
    }

    def run_all():
        return {name: _run_variant(cfg, steps) for name, cfg in variants.items()}

    results = run_once(benchmark, run_all)
    print()
    print("Ablations — Twig-S, masstree @ 50% load")
    for name, metrics in results.items():
        print(f"  {name:34s} qos {metrics['qos']:5.1f}%  energy {metrics['energy']:4.2f}x")

    # With no power term in the reward there is no pressure to shed
    # resources, so energy should not be (meaningfully) lower than the
    # baseline's.
    assert results["theta=0 (no power reward)"]["energy"] >= (
        results["baseline (PER, eta=5, theta=0.5)"]["energy"] - 0.05
    )
    # The full design keeps a high QoS guarantee.
    assert results["baseline (PER, eta=5, theta=0.5)"]["qos"] > 80.0
