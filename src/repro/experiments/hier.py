"""Hierarchical fleet-control experiment: allocator + Twig leaves at scale.

``repro run hier --nodes N`` steps an N-node cluster under the two-level
control stack of :mod:`repro.hier` — a budget-allocator agent assigning
per-node power budgets every ``budget_period`` control ticks over leaf
BDQ agents (one fused act/train path for the whole fleet) — and compares
it against flat per-node Twig (the PR-7 cluster configuration) and the
rule-based Static/Heracles/PARTIES fleets on fleet QoS, cluster power,
and total energy.

Every variant steps its nodes through one fused
:class:`~repro.cluster.environment.ClusterEnvironment` under one fleet
manager. The hierarchy needs that lock-step path: the allocator's window
aggregates and the leaves' budget masking both live inside
``update_batch``, and the shared trunk only amortises when all nodes act
through one fused forward.

``--levels`` and ``--budget-period`` expose the allocator's two main
knobs; ``provision_from`` seeds the leaf policy from a PR-5-era
checkpoint via :func:`repro.hier.provision.provision_fleet` before the
run starts (leaf-policy transfer onto freshly provisioned nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.balancer import BALANCER_POLICIES
from repro.cluster.environment import ClusterEnvironment
from repro.cluster.traffic import TRAFFIC_PRESETS
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.errors import ConfigurationError
from repro.experiments.runner import RunTrace
from repro.hier import (
    RULE_BASELINES,
    BudgetConfig,
    HierFleetTwig,
    make_rule_fleet,
    provision_fleet,
)
from repro.services.profiles import get_profile

#: Energy slop below which hier "matches" flat (covers RAPL noise).
_ENERGY_TOLERANCE = 1.005


@dataclass(frozen=True)
class HierConfig:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    num_nodes: int = 10
    steps: int = 200
    seed: int = 7
    balancer: str = "least_loaded"
    traffic: str = "diurnal"
    regions: Tuple[str, ...] = ("r0", "r1")
    budget_period: int = 10
    levels: int = 5
    tilts: int = 3
    #: Comparison fleets: "flat" (per-node Twig leaves, no allocator) plus
    #: any of repro.hier.baselines.RULE_BASELINES.
    baselines: Tuple[str, ...] = ("flat", "static", "parties")
    epsilon_mid_steps: int = 80
    epsilon_final_steps: int = 160
    window: int = 100
    #: Optional checkpoint to transfer the leaf policy from before the run
    #: (simulates provisioning fresh nodes from a trained fleet).
    provision_from: Optional[str] = None

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
        allowed = {"flat"} | set(RULE_BASELINES)
        unknown = [b for b in self.baselines if b not in allowed]
        if unknown:
            raise ConfigurationError(
                f"unknown baselines {unknown}; known: {sorted(allowed)}"
            )
        if "heracles" in self.baselines and len(self.services) != 1:
            raise ConfigurationError(
                "heracles manages exactly one LC service per node; drop it "
                "from baselines or run a single-service fleet"
            )
        # Surface bad allocator knobs at config time, not mid-run.
        BudgetConfig(period=self.budget_period, levels=self.levels, tilts=self.tilts)


@dataclass
class VariantSummary:
    """One control stack's fleet-level scorecard."""

    qos_guarantee: Dict[str, float]
    mean_fleet_qos: float
    mean_cluster_power_w: float
    total_energy_j: float


@dataclass
class HierResult:
    num_nodes: int
    steps: int
    budget_period: int
    levels: int
    variants: Dict[str, VariantSummary]
    #: Acceptance bit: hier fleet energy <= flat fleet energy (within noise).
    hier_beats_flat_energy: bool
    traces: Dict[str, List[RunTrace]] = field(default_factory=dict, repr=False)

    def format_table(self) -> str:
        lines = [
            f"Hierarchical control — {self.num_nodes} nodes x {self.steps} steps "
            f"(budget period {self.budget_period}, {self.levels} levels)"
        ]
        for name in self.variants:
            v = self.variants[name]
            lines.append(
                f"  {name:8s} qos {v.mean_fleet_qos:5.1f}%   "
                f"power {v.mean_cluster_power_w:8.1f} W   "
                f"energy {v.total_energy_j / 1e3:8.1f} kJ"
            )
        if "flat" in self.variants:
            verdict = "<=" if self.hier_beats_flat_energy else ">"
            lines.append(f"  hier energy {verdict} flat energy")
        return "\n".join(lines)


def _twig_config(config: HierConfig) -> TwigConfig:
    return TwigConfig.fast(
        epsilon_mid_steps=config.epsilon_mid_steps,
        epsilon_final_steps=config.epsilon_final_steps,
    )


def _make_env(config: HierConfig) -> ClusterEnvironment:
    return ClusterEnvironment.from_services(
        list(config.services),
        num_nodes=config.num_nodes,
        seed=config.seed,
        traffic=config.traffic,
        balancer=config.balancer,
        regions=config.regions,
    )


def _make_manager(config: HierConfig, variant: str):
    profiles = [get_profile(s) for s in config.services]
    if variant == "hier":
        manager = HierFleetTwig(
            profiles,
            _twig_config(config),
            np.random.default_rng(config.seed + 1),
            num_envs=config.num_nodes,
            budget=BudgetConfig(
                period=config.budget_period,
                levels=config.levels,
                tilts=config.tilts,
            ),
            allocator_rng=np.random.default_rng(config.seed + 2),
        )
    elif variant == "flat":
        manager = FleetTwig(
            profiles,
            _twig_config(config),
            np.random.default_rng(config.seed + 1),
            num_envs=config.num_nodes,
        )
    else:
        manager = make_rule_fleet(
            variant, config.services, config.num_nodes, config.seed
        )
    manager.index_tag = "node"
    return manager


def _summarize(config: HierConfig, traces: List[RunTrace]) -> VariantSummary:
    window = min(config.window, config.steps)
    interval_s = traces[0].interval_s
    qos = {
        s: float(np.mean([t.qos_guarantee(s, window) for t in traces]))
        for s in config.services
    }
    return VariantSummary(
        qos_guarantee=qos,
        mean_fleet_qos=float(np.mean(list(qos.values()))),
        mean_cluster_power_w=float(
            np.sum([np.mean(t.power_w[-window:]) for t in traces])
        ),
        total_energy_j=float(
            np.sum([np.sum(t.power_w) for t in traces]) * interval_s
        ),
    )


def run(config: HierConfig = HierConfig()) -> HierResult:
    variants = ("hier",) + tuple(config.baselines)
    summaries: Dict[str, VariantSummary] = {}
    all_traces: Dict[str, List[RunTrace]] = {}
    for variant in variants:
        venv = _make_env(config)
        manager = _make_manager(config, variant)
        if variant == "hier" and config.provision_from is not None:
            provision_fleet(manager, config.provision_from)
        traces = run_fleet(manager, venv, config.steps)
        summaries[variant] = _summarize(config, traces)
        all_traces[variant] = traces
    beats = True
    if "flat" in summaries:
        beats = (
            summaries["hier"].total_energy_j
            <= summaries["flat"].total_energy_j * _ENERGY_TOLERANCE
        )
    return HierResult(
        num_nodes=config.num_nodes,
        steps=config.steps,
        budget_period=config.budget_period,
        levels=config.levels,
        variants=summaries,
        hier_beats_flat_energy=beats,
        traces=all_traces,
    )
