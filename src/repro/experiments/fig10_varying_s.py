"""Figure 10: varying load, single service (Img-dnn).

The paper drives Img-dnn with the step-wise monotonic load (change factor
20 %, level changes every 200 s) and compares the resource allocations of
Twig-S, Hipster and Heracles after the learning phase. Findings: Hipster's
heuristic cannot keep up with the load changes (it jumps between mapping
decisions, hurting QoS at high load); Heracles holds 100 % QoS but with
~2.3x more migrations and ~18 % more energy than Twig-S; Twig-S tracks the
load with lean allocations at ~99 % QoS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.baselines import HeraclesManager, HipsterManager, StaticManager
from repro.experiments.common import HARNESS, HarnessConfig, ManagerSummary, build_twig, summarize
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.loadgen import StepwiseVaryingLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


@dataclass(frozen=True)
class Fig10Config:
    service: str = "img-dnn"
    min_fraction: float = 0.2
    max_fraction: float = 0.9
    change_factor: float = 1.2
    step_every: int = 100            # paper: 200 s
    measure_steps: int = 2_000       # window after the learning phase
    harness: HarnessConfig = field(default_factory=HarnessConfig)


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig10Config(step_every=80, measure_steps=800, harness=HARNESS["quick"]),
    "default": Fig10Config(),
    "paper": Fig10Config(harness=HARNESS["paper"]),
}


@dataclass
class Fig10Result:
    summaries: Dict[str, ManagerSummary]
    migrations: Dict[str, int]

    def format_table(self) -> str:
        lines = [
            "Figure 10 — varying load (img-dnn), QoS / normalised energy / migrations",
        ]
        for manager, summary in self.summaries.items():
            qos = np.mean(list(summary.qos_guarantee.values()))
            lines.append(
                f"{manager:9s} qos {qos:5.1f}%  energy {summary.normalized_energy:4.2f}x  "
                f"migrations {self.migrations.get(manager, 0):6d}"
            )
        return "\n".join(lines)


def _env(config: Fig10Config, seed: int) -> ColocationEnvironment:
    spec = ServerSpec()
    profile = get_profile(config.service)
    generator = StepwiseVaryingLoad(
        profile.max_load_rps,
        min_fraction=config.min_fraction,
        max_fraction=config.max_fraction,
        change_factor=config.change_factor,
        step_every=config.step_every,
        rng=np.random.default_rng(seed + 50),
    )
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {config.service: generator},
        np.random.default_rng(seed),
    )


def run(config: Fig10Config = Fig10Config()) -> Fig10Result:
    spec = ServerSpec()
    profile = get_profile(config.service)
    harness = config.harness
    seed = harness.seed
    window = config.measure_steps

    static_trace = run_manager(
        StaticManager([config.service], spec=spec), _env(config, seed), window
    )
    baseline = static_trace.mean_power_w()

    summaries: Dict[str, ManagerSummary] = {
        "static": summarize(static_trace, window, baseline)
    }
    heracles_trace = run_manager(
        HeraclesManager(profile, spec=spec),
        _env(config, seed),
        harness.heracles_steps + window,
    )
    summaries["heracles"] = summarize(heracles_trace, window, baseline)

    hipster = HipsterManager(
        profile,
        np.random.default_rng(3),
        spec=spec,
        learning_phase_steps=harness.hipster_learning_phase,
    )
    hipster_trace = run_manager(
        hipster, _env(config, seed), harness.hipster_learning_phase + window
    )
    summaries["hipster"] = summarize(hipster_trace, window, baseline)

    twig = build_twig([profile], harness)
    twig_trace = run_manager(twig, _env(config, seed), harness.twig_steps + window)
    summaries["twig-s"] = summarize(twig_trace, window, baseline)

    migrations = {
        name: summary.migrations.get(config.service, 0)
        for name, summary in summaries.items()
    }
    return Fig10Result(summaries=summaries, migrations=migrations)
