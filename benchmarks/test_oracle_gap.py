"""Optimality-gap bench: Twig-S vs the clairvoyant oracle.

The oracle (not in the paper) replays the offline-optimal static
allocation per load level — it knows the service model exactly and pays no
exploration cost. The gap between Twig's converged power and the oracle's
quantifies how much the *learning problem* leaves on the table, separating
learner limitations from substrate limitations.
"""

import numpy as np
from conftest import SCALE, run_once

from repro.baselines import OracleManager, StaticManager
from repro.core import Twig, TwigConfig
from repro.experiments.common import HARNESS, make_environment
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile


def test_oracle_gap(benchmark):
    harness = HARNESS[SCALE]
    spec = ServerSpec()
    profile = get_profile("masstree")

    def run_all():
        rows = {}
        for load in (0.2, 0.5):
            static = run_manager(
                StaticManager(["masstree"], spec=spec),
                make_environment(["masstree"], [load], harness.seed, spec),
                harness.static_steps,
            )
            oracle = run_manager(
                OracleManager(profile, spec=spec),
                make_environment(["masstree"], [load], harness.seed, spec),
                harness.static_steps,
            )
            twig = Twig(
                [profile],
                TwigConfig.fast(
                    epsilon_mid_steps=harness.twig_epsilon_mid,
                    epsilon_final_steps=harness.twig_epsilon_final,
                ),
                np.random.default_rng(42),
                spec=spec,
            )
            env = make_environment(["masstree"], [load], harness.seed, spec)
            run_manager(twig, env, harness.twig_steps)
            twig.exploit()
            twig_trace = run_manager(twig, env, harness.window)
            base = static.mean_power_w()
            rows[load] = {
                "oracle": oracle.mean_power_w() / base,
                "twig": twig_trace.mean_power_w(harness.window) / base,
                "oracle_qos": oracle.qos_guarantee("masstree"),
                "twig_qos": twig_trace.qos_guarantee("masstree", harness.window),
            }
        return rows

    rows = run_once(benchmark, run_all)
    print()
    print("Optimality gap — masstree, normalised energy (static = 1.0)")
    print(f"{'load':>5s} {'oracle':>8s} {'twig-s':>8s} {'gap':>7s}")
    for load, row in rows.items():
        gap = 100.0 * (row["twig"] - row["oracle"])
        print(
            f"{load * 100:4.0f}% {row['oracle']:8.2f} {row['twig']:8.2f} {gap:6.1f}pp"
            f"   (qos {row['oracle_qos']:.1f}% / {row['twig_qos']:.1f}%)"
        )
    for row in rows.values():
        assert row["oracle"] <= row["twig"] + 0.02  # oracle is a lower bound
        assert row["oracle_qos"] > 90.0
