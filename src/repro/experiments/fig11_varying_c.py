"""Figure 11: varying load, colocated services.

The paper ramps Moses from 20 % to 100 % of its maximum load while
Masstree holds a fixed 20 %, and shows Twig-C's resource allocation
tracking: it jumps directly to the appropriate core configuration for each
load level and prefers fine DVFS adaptations (cheaper than migrations).
PARTIES is run for comparison (the paper omits it from the plot for
legibility but describes it migrating through many configurations and
hurting QoS on load spikes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.baselines import PartiesManager
from repro.experiments.common import HARNESS, HarnessConfig, build_twig
from repro.experiments.runner import RunTrace, run_manager
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad, StepwiseVaryingLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


@dataclass(frozen=True)
class Fig11Config:
    ramp_service: str = "moses"
    fixed_service: str = "masstree"
    fixed_fraction: float = 0.2
    min_fraction: float = 0.2
    max_fraction: float = 0.7   # colocated max: each service runs below solo max
    step_every: int = 100
    measure_steps: int = 2_000
    harness: HarnessConfig = field(default_factory=HarnessConfig)


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig11Config(step_every=80, measure_steps=800, harness=HARNESS["quick"]),
    "default": Fig11Config(),
    "paper": Fig11Config(harness=HARNESS["paper"]),
}


@dataclass
class Fig11Result:
    levels: List[float]                      # ramp load fractions seen
    twig_cores_by_level: Dict[float, float]  # mean cores for the ramp service
    twig_freq_by_level: Dict[float, float]
    twig_qos: Dict[str, float]
    parties_qos: Dict[str, float]
    twig_migrations: int
    parties_migrations: int

    def format_table(self) -> str:
        lines = [
            "Figure 11 — Twig-C allocation tracking a moses load ramp",
            f"{'load':>5s} {'cores':>6s} {'freq':>5s}",
        ]
        for level in self.levels:
            lines.append(
                f"{level * 100:4.0f}% {self.twig_cores_by_level[level]:6.1f} "
                f"{self.twig_freq_by_level[level]:5.2f}"
            )
        lines.append(
            f"twig-c qos: {self.twig_qos} migrations {self.twig_migrations}; "
            f"parties qos: {self.parties_qos} migrations {self.parties_migrations}"
        )
        return "\n".join(lines)


def _env(config: Fig11Config, seed: int) -> ColocationEnvironment:
    spec = ServerSpec()
    ramp = get_profile(config.ramp_service)
    fixed = get_profile(config.fixed_service)
    generators = {
        config.ramp_service: StepwiseVaryingLoad(
            ramp.max_load_rps,
            min_fraction=config.min_fraction,
            max_fraction=config.max_fraction,
            step_every=config.step_every,
            rng=np.random.default_rng(seed + 60),
        ),
        config.fixed_service: ConstantLoad(
            fixed.max_load_rps, config.fixed_fraction, rng=np.random.default_rng(seed + 61)
        ),
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [ramp, fixed],
        generators,
        np.random.default_rng(seed),
    )


def _qos(trace: RunTrace, window: int) -> Dict[str, float]:
    return {s: round(trace.qos_guarantee(s, window), 1) for s in trace.services}


def run(config: Fig11Config = Fig11Config()) -> Fig11Result:
    harness = config.harness
    ramp = get_profile(config.ramp_service)
    fixed = get_profile(config.fixed_service)
    window = config.measure_steps

    twig = build_twig([ramp, fixed], harness)
    twig_trace = run_manager(twig, _env(config, harness.seed), harness.twig_steps + window)

    parties = PartiesManager([ramp, fixed], np.random.default_rng(3))
    parties_trace = run_manager(parties, _env(config, harness.seed), window)

    # Bucket Twig's post-learning allocations by the observed load level.
    arrivals = np.asarray(twig_trace.services[config.ramp_service].arrival_rps[-window:])
    cores = np.asarray(twig_trace.services[config.ramp_service].cores[-window:])
    freqs = np.asarray(twig_trace.services[config.ramp_service].frequency_ghz[-window:])
    fractions = arrivals / ramp.max_load_rps
    generator = StepwiseVaryingLoad(
        ramp.max_load_rps,
        min_fraction=config.min_fraction,
        max_fraction=config.max_fraction,
        step_every=config.step_every,
    )
    levels = sorted(set(round(l, 3) for l in generator._levels))
    cores_by, freq_by = {}, {}
    for level in levels:
        mask = np.abs(fractions - level) < 0.05
        if mask.sum() >= 5:
            cores_by[level] = float(cores[mask].mean())
            freq_by[level] = float(freqs[mask].mean())
    present = [l for l in levels if l in cores_by]
    return Fig11Result(
        levels=present,
        twig_cores_by_level=cores_by,
        twig_freq_by_level=freq_by,
        twig_qos=_qos(twig_trace, window),
        parties_qos=_qos(parties_trace, window),
        twig_migrations=sum(twig_trace.migrations.values()),
        parties_migrations=sum(parties_trace.migrations.values()),
    )
