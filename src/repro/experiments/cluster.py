"""Cluster experiment: a load-balanced multi-node fleet under Twig.

``repro run cluster --nodes N`` steps an N-node datacenter in one
process: a declarative traffic model (diurnal curves, flash crowds,
regional shifts) generates each LC service's fleet demand, a pluggable
balancer spreads it over nodes every control interval, and every node
runs the same colocation under Twig control.

Engines:

``vector`` (default)
    One :class:`~repro.cluster.environment.ClusterEnvironment` steps all
    nodes through the fused (node x service) NumPy path, and one shared
    :class:`~repro.core.fleet.FleetTwig` policy acts for every node
    with a single batched forward per tick — the only configuration that
    makes 256+ nodes per process practical.
``scalar``
    N independent :class:`~repro.core.twig.Twig` managers stepped in an
    explicit lock-step Python loop (the balancer still needs all nodes'
    results each tick), each node recorded by ``RunTrace.record``. It
    learns N policies, not one, so it is a baseline, not an oracle: the
    cluster physics is checked against
    :class:`~repro.sim.environment.ColocationEnvironment` nodes stepped
    by hand (``tests/test_cluster_environment.py``), and this engine is
    pinned only by the ``cluster-scalar`` golden hash and a test that it
    runs.

Cross-references: ``docs/fleet.md`` (topology/balancer/traffic model),
``docs/architecture.md`` (cluster layer diagram), ``EXPERIMENTS.md``
(scorecard extensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.balancer import BALANCER_POLICIES, NodeLoads, make_balancer
from repro.cluster.environment import (
    BALANCER_SEED_OFFSET,
    TRAFFIC_SEED_OFFSET,
    ClusterEnvironment,
    make_cluster_node,
)
from repro.cluster.topology import ClusterTopology
from repro.cluster.traffic import TRAFFIC_PRESETS, TrafficModel, make_traffic_spec
from repro.core.config import TwigConfig
from repro.core.twig import Twig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import ENV_SEED_STRIDE
from repro.errors import ConfigurationError
from repro.experiments.runner import RunTrace
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class ClusterConfig:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    num_nodes: int = 64
    steps: int = 200
    seed: int = 7
    #: "vector" = one fused ClusterEnvironment + shared FleetTwig;
    #: "scalar" = N independent Twigs in a lock-step loop.
    engine: str = "vector"
    balancer: str = "round_robin"
    traffic: str = "diurnal"
    regions: Tuple[str, ...] = ("r0", "r1")
    epsilon_mid_steps: int = 80
    epsilon_final_steps: int = 160
    window: int = 100

    def __post_init__(self) -> None:
        if not self.services:
            raise ConfigurationError("need at least one service")
        if self.engine not in ("vector", "scalar"):
            raise ConfigurationError(
                f"engine must be 'vector' or 'scalar', got {self.engine!r}"
            )
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
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
    engine: str
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
            f"(engine={self.engine}, balancer={self.balancer}, "
            f"traffic={self.traffic})"
        ]
        for name in sorted(self.qos_guarantee):
            lines.append(f"  {name:10s} QoS guarantee {self.qos_guarantee[name]:5.1f}%")
        lines.append(
            f"  cluster power {self.mean_cluster_power_w:8.1f} W   "
            f"energy {self.total_energy_j / 1e3:8.1f} kJ"
        )
        return "\n".join(lines)


def _twig_config(config: ClusterConfig) -> TwigConfig:
    return TwigConfig.fast(
        epsilon_mid_steps=config.epsilon_mid_steps,
        epsilon_final_steps=config.epsilon_final_steps,
    )


def _run_vector(config: ClusterConfig) -> List[RunTrace]:
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
        _twig_config(config),
        np.random.default_rng(config.seed + 1),
        num_envs=config.num_nodes,
    )
    manager.index_tag = "node"
    return run_fleet(manager, venv, config.steps)


def _run_scalar(config: ClusterConfig) -> List[RunTrace]:
    """Lock-step scalar engine: N Twigs, shared traffic + balancer."""
    services = list(config.services)
    topology = ClusterTopology(config.num_nodes, tuple(config.regions))
    model = TrafficModel(
        make_traffic_spec(config.traffic, services),
        topology,
        np.random.default_rng(config.seed + TRAFFIC_SEED_OFFSET),
    )
    policy = make_balancer(
        config.balancer, topology, seed=config.seed + BALANCER_SEED_OFFSET
    )
    nodes = [
        make_cluster_node(services, config.seed + e * ENV_SEED_STRIDE)
        for e in range(config.num_nodes)
    ]
    managers = [
        Twig(
            [get_profile(s) for s in services],
            _twig_config(config),
            np.random.default_rng(config.seed + 1 + e),
        )
        for e in range(config.num_nodes)
    ]
    assignments = [m.initial_assignments() for m in managers]
    traces = [RunTrace.for_env(m.name, env) for m, env in zip(managers, nodes)]
    loads = None
    shape = (config.num_nodes, len(services))
    for _ in range(config.steps):
        demand = model.demand(nodes[0].time)
        rates = policy.assign(nodes[0].time, demand, loads)
        for e, env in enumerate(nodes):
            for i, name in enumerate(services):
                env.load_generators[name].set_rate(rates[e, i])
        results = [env.step(assignments[e]) for e, env in enumerate(nodes)]
        arrival, util, backlog = (np.empty(shape) for _ in range(3))
        for e, result in enumerate(results):
            traces[e].record(result)
            for i, name in enumerate(services):
                interval = result.observations[name].interval
                arrival[e, i] = interval.arrival_rate
                util[e, i] = interval.utilization
                backlog[e, i] = interval.backlog
        loads = NodeLoads(arrival_rps=arrival, utilization=util, backlog=backlog)
        assignments = [managers[e].update(results[e]) for e in range(config.num_nodes)]
    for e, env in enumerate(nodes):
        traces[e].migrations = dict(env.machine.migration_counts)
    return traces


def run(config: ClusterConfig = ClusterConfig()) -> ClusterResult:
    traces = _run_scalar(config) if config.engine == "scalar" else _run_vector(config)
    window = min(config.window, config.steps)
    interval_s = traces[0].interval_s
    return ClusterResult(
        engine=config.engine,
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
