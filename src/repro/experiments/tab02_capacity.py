"""Table II: maximum load and QoS target per service.

The paper determines each service's maximum load by "increasing the
incoming load step by step until the latency increases exponentially",
with the service pinned to all cores of a socket at the highest DVFS
setting, and sets the 99th-percentile targets from the platform's
characteristics. This module runs the same ramp on the simulated server:
the knee is declared where p99 first exceeds ``knee_ratio`` times the
low-load baseline latency, and the derived QoS target is the p99 measured
just below the knee times a safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


@dataclass(frozen=True)
class Tab02Config:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    start_fraction: float = 0.1
    step_fraction: float = 0.05
    max_fraction: float = 1.4
    seconds_per_level: int = 20
    knee_ratio: float = 1.8       # knee = p99 jumps this much between levels
    target_margin: float = 1.25
    seed: int = 11


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Tab02Config(seconds_per_level=8),
    "default": Tab02Config(),
    "paper": Tab02Config(step_fraction=0.025, seconds_per_level=60),
}


@dataclass
class ServiceCapacity:
    max_load_rps: float
    derived_qos_target_ms: float
    baseline_p99_ms: float
    paper_max_load_rps: float
    paper_qos_target_ms: float
    profile_qos_target_ms: float


@dataclass
class Tab02Result:
    per_service: Dict[str, ServiceCapacity]

    def format_table(self) -> str:
        lines = [
            "Table II — service capacity (measured on the simulated platform)",
            f"{'service':10s} {'max load (rps)':>15s} {'paper max':>10s} "
            f"{'QoS target (ms)':>16s} {'paper (ms)':>11s}",
        ]
        for name, cap in self.per_service.items():
            lines.append(
                f"{name:10s} {cap.max_load_rps:15.0f} {cap.paper_max_load_rps:10.0f} "
                f"{cap.derived_qos_target_ms:16.2f} {cap.paper_qos_target_ms:11.2f}"
            )
        return "\n".join(lines)


def _ramp(service: str, config: Tab02Config, rng: np.random.Generator) -> ServiceCapacity:
    spec = ServerSpec()
    profile = get_profile(service)
    assignment = None
    baseline: float = 0.0
    knee_load = profile.max_load_rps
    previous_p99 = 0.0
    fraction = config.start_fraction
    while fraction <= config.max_fraction:
        env = ColocationEnvironment(
            EnvironmentConfig(spec=spec),
            [profile],
            {service: ConstantLoad(profile.max_load_rps, 0.0, rng=rng)},
            rng,
        )
        # Override the generator with this ramp level.
        env.load_generators[service] = ConstantLoad(
            profile.max_load_rps, fraction, rng=rng
        )
        assignment = {
            service: CoreAssignment(
                cores=tuple(env.socket_core_ids), freq_index=len(spec.dvfs) - 1
            )
        }
        p99s = [
            env.step(assignment).observations[service].p99_ms
            for _ in range(config.seconds_per_level)
        ]
        p99 = float(np.median(p99s))
        if fraction == config.start_fraction:
            baseline = p99
        # "Latency increases exponentially": declare the knee at the first
        # level-to-level jump of knee_ratio (after leaving the flat region).
        if previous_p99 > 0 and p99 > config.knee_ratio * previous_p99 and p99 > 2 * baseline:
            knee_load = (fraction - config.step_fraction) * profile.max_load_rps
            break
        previous_p99 = p99
        fraction = round(fraction + config.step_fraction, 4)
    else:
        knee_load = config.max_fraction * profile.max_load_rps
    return ServiceCapacity(
        max_load_rps=knee_load,
        derived_qos_target_ms=previous_p99 * config.target_margin,
        baseline_p99_ms=baseline,
        paper_max_load_rps=profile.paper_max_load_rps,
        paper_qos_target_ms=profile.paper_qos_target_ms,
        profile_qos_target_ms=profile.qos_target_ms,
    )


def run(config: Tab02Config = Tab02Config()) -> Tab02Result:
    per_service = {}
    for service in config.services:
        rng = np.random.default_rng(config.seed)
        per_service[service] = _ramp(service, config, rng)
    return Tab02Result(per_service=per_service)
