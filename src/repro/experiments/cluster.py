"""Cluster experiment: a load-balanced multi-node fleet under Twig.

``repro run cluster --nodes N`` steps an N-node datacenter in one
process: a declarative traffic model (diurnal curves, flash crowds,
regional shifts) generates each LC service's fleet demand, a pluggable
balancer spreads it over nodes every control interval, and every node
runs the same colocation under Twig control.

One :class:`~repro.cluster.environment.ClusterEnvironment` steps all
nodes through the fused (node x service) NumPy path, and one shared
:class:`~repro.core.fleet.FleetTwig` policy acts for every node with a
single batched forward per tick, which is what makes 256+ nodes per
process practical. The cluster physics is checked against
:class:`~repro.sim.environment.ColocationEnvironment` nodes stepped by
hand (``tests/test_cluster_environment.py``).

Cross-references: ``docs/fleet.md`` (topology/balancer/traffic model),
``docs/architecture.md`` (cluster layer diagram), ``EXPERIMENTS.md``
(scorecard extensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.balancer import BALANCER_POLICIES
from repro.cluster.environment import ClusterEnvironment
from repro.cluster.traffic import TRAFFIC_PRESETS
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.errors import ConfigurationError
from repro.experiments.runner import RunTrace
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class ClusterConfig:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    num_nodes: int = 64
    steps: int = 200
    seed: int = 7
    balancer: str = "round_robin"
    traffic: str = "diurnal"
    regions: Tuple[str, ...] = ("r0", "r1")
    epsilon_mid_steps: int = 80
    epsilon_final_steps: int = 160
    window: int = 100

    def __post_init__(self) -> None:
        if not self.services:
            raise ConfigurationError("need at least one service")
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.balancer not in BALANCER_POLICIES:
            raise ConfigurationError(
                f"unknown balancer {self.balancer!r}; known: "
                f"{sorted(BALANCER_POLICIES)}"
            )
        if self.traffic not in TRAFFIC_PRESETS:
            raise ConfigurationError(
                f"unknown traffic preset {self.traffic!r}; known: "
                f"{sorted(TRAFFIC_PRESETS)}"
            )
        if not self.regions:
            raise ConfigurationError("need at least one region")
        if len(self.regions) > self.num_nodes:
            raise ConfigurationError(
                f"{len(self.regions)} regions but only {self.num_nodes} nodes"
            )


@dataclass
class ClusterResult:
    num_nodes: int
    steps: int
    balancer: str
    traffic: str
    #: Fleet QoS guarantee per service over the trailing window: the mean
    #: across nodes of each node's per-service guarantee.
    qos_guarantee: Dict[str, float]
    #: Mean over the window of the summed per-node socket power.
    mean_cluster_power_w: float
    #: Cumulative energy over the whole run, all nodes.
    total_energy_j: float
    traces: List[RunTrace] = field(default_factory=list, repr=False)

    def format_table(self) -> str:
        lines = [
            f"Cluster — {self.num_nodes} nodes x {self.steps} steps "
            f"(balancer={self.balancer}, traffic={self.traffic})"
        ]
        for name in sorted(self.qos_guarantee):
            lines.append(f"  {name:10s} QoS guarantee {self.qos_guarantee[name]:5.1f}%")
        lines.append(
            f"  cluster power {self.mean_cluster_power_w:8.1f} W   "
            f"energy {self.total_energy_j / 1e3:8.1f} kJ"
        )
        return "\n".join(lines)


def run(config: ClusterConfig = ClusterConfig()) -> ClusterResult:
    venv = ClusterEnvironment.from_services(
        list(config.services),
        num_nodes=config.num_nodes,
        seed=config.seed,
        traffic=config.traffic,
        balancer=config.balancer,
        regions=config.regions,
    )
    manager = FleetTwig(
        [get_profile(s) for s in config.services],
        TwigConfig.fast(
            epsilon_mid_steps=config.epsilon_mid_steps,
            epsilon_final_steps=config.epsilon_final_steps,
        ),
        np.random.default_rng(config.seed + 1),
        num_envs=config.num_nodes,
    )
    manager.index_tag = "node"
    traces = run_fleet(manager, venv, config.steps)
    window = min(config.window, config.steps)
    interval_s = traces[0].interval_s
    return ClusterResult(
        num_nodes=config.num_nodes,
        steps=config.steps,
        balancer=config.balancer,
        traffic=config.traffic,
        qos_guarantee={
            s: float(np.mean([t.qos_guarantee(s, window) for t in traces]))
            for s in config.services
        },
        mean_cluster_power_w=float(
            np.sum([np.mean(t.power_w[-window:]) for t in traces])
        ),
        total_energy_j=float(
            np.sum([np.sum(t.power_w) for t in traces]) * interval_s
        ),
        traces=traces,
    )
