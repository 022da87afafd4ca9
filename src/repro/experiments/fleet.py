"""Fleet rollout: N sibling experiments stepped in lock-step.

The PCS/HiDVFS line of work (PAPERS.md) needs cluster-scale studies —
many nodes running the same colocation under one learned policy. This
experiment is the engine demo for that: N sibling environments (same
service mix, per-env deterministic seeds) stepped by the vectorized
in-process engine, with one fused environment step, one batched act and
one train round per tick, learning ONE shared policy from N
environments. The vector physics is checked against
:class:`~repro.sim.environment.ColocationEnvironment` stepped directly
(tests/test_engine_vector.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.core.config import TwigConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import RunTrace
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class FleetConfig:
    services: Tuple[str, ...] = ("masstree", "xapian")
    load_fractions: Tuple[float, ...] = (0.4, 0.5)
    num_envs: int = 8
    steps: int = 400
    seed: int = 7
    epsilon_mid_steps: int = 150
    epsilon_final_steps: int = 300
    window: int = 100

    def __post_init__(self) -> None:
        if len(self.services) != len(self.load_fractions):
            raise ConfigurationError(
                f"{len(self.services)} services but {len(self.load_fractions)} load fractions"
            )
        if self.num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {self.num_envs}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": FleetConfig(
        num_envs=4, steps=150, epsilon_mid_steps=60, epsilon_final_steps=120, window=60
    ),
    "default": FleetConfig(),
    "paper": FleetConfig(),
}


@dataclass
class FleetResult:
    num_envs: int
    steps: int
    qos_guarantee: List[Dict[str, float]]       # per env, per service
    mean_power_w: List[float]                   # per env
    traces: List[RunTrace] = field(default_factory=list, repr=False)

    def format_table(self) -> str:
        services = sorted(self.qos_guarantee[0]) if self.qos_guarantee else []
        lines = [
            f"Fleet rollout — {self.num_envs} envs x {self.steps} steps"
        ]
        for e in range(self.num_envs):
            qos = "  ".join(
                f"{s} {self.qos_guarantee[e][s]:5.1f}%" for s in services
            )
            lines.append(f"env {e:2d}  {qos}  power {self.mean_power_w[e]:5.1f} W")
        if self.num_envs > 1:
            mean_qos = "  ".join(
                f"{s} {np.mean([q[s] for q in self.qos_guarantee]):5.1f}%"
                for s in services
            )
            lines.append(
                f"mean    {mean_qos}  power {np.mean(self.mean_power_w):5.1f} W"
            )
        return "\n".join(lines)


def run(config: FleetConfig = FleetConfig()) -> FleetResult:
    venv = VectorEnvironment.from_services(
        list(config.services),
        dict(zip(config.services, config.load_fractions)),
        config.num_envs,
        config.seed,
    )
    manager = FleetTwig(
        [get_profile(s) for s in config.services],
        TwigConfig.fast(
            epsilon_mid_steps=config.epsilon_mid_steps,
            epsilon_final_steps=config.epsilon_final_steps,
        ),
        np.random.default_rng(config.seed + 1),
        num_envs=config.num_envs,
    )
    traces = run_fleet(manager, venv, config.steps)
    window = min(config.window, config.steps)
    return FleetResult(
        num_envs=config.num_envs,
        steps=config.steps,
        qos_guarantee=[
            {s: t.qos_guarantee(s, window) for s in config.services} for t in traces
        ],
        mean_power_w=[t.mean_power_w(window) for t in traces],
        traces=traces,
    )
