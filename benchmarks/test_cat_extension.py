"""Extension bench: Twig-C with the Intel-CAT action branch.

The paper's testbed could not enable CAT; our substrate can. This bench
colocates the two most cache-hungry services (Moses + Xapian) and compares
Twig-C with and without the LLC-partitioning branch. The extra dimension
triples the action space per agent, so at equal training budget the CAT
variant may trade some convergence speed for its isolation benefit; the
bench reports QoS and energy for both.
"""

import numpy as np
from conftest import SCALE, run_once

from repro.core import Twig, TwigConfig
from repro.experiments.common import HARNESS, make_environment
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile


def test_cat_extension(benchmark):
    harness = HARNESS[SCALE]
    spec = ServerSpec()
    services = ["moses", "xapian"]
    fractions = [0.5, 0.5]
    profiles = [get_profile(s) for s in services]

    def run_variant(manage_llc: bool):
        config = TwigConfig.fast(
            epsilon_mid_steps=harness.twig_epsilon_mid,
            epsilon_final_steps=harness.twig_epsilon_final,
        ).scaled(manage_llc=manage_llc)
        twig = Twig(profiles, config, np.random.default_rng(42), spec=spec)
        env = make_environment(services, fractions, harness.seed, spec)
        run_manager(twig, env, harness.twig_steps)
        twig.exploit()
        trace = run_manager(twig, env, harness.window)
        return {
            "qos": {s: trace.qos_guarantee(s, harness.window) for s in services},
            "power": trace.mean_power_w(harness.window),
        }

    def run_both():
        return {
            "without CAT": run_variant(False),
            "with CAT": run_variant(True),
        }

    results = run_once(benchmark, run_both)
    print()
    print("CAT extension — Twig-C on moses+xapian @ 50%/50%")
    for name, metrics in results.items():
        qos = {k: round(v, 1) for k, v in metrics["qos"].items()}
        print(f"  {name:12s} qos {qos}  power {metrics['power']:5.1f} W")

    floor = 30.0 if harness.twig_steps < 4000 else 55.0
    for metrics in results.values():
        assert metrics["power"] > 0
        # The CAT variant's action space is 3x larger, so at small budgets
        # its convergence lags — the bench quantifies that cost.
        assert np.mean(list(metrics["qos"].values())) > floor
