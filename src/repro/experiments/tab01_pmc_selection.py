"""Table I: PMC selection and importance ranking.

The paper runs each LC service for 1000 s at each DVFS/core combination,
gathers all counters at 1 s intervals, builds a Pearson correlation matrix
against tail latency, picks principal components covering >= 95 % of the
covariance, and ranks the most vital, distinct counters. Here we sweep the
simulated services over a (cores x DVFS x load) grid, feed the pooled
samples through :func:`repro.pmc.selection.select_counters`, and report the
resulting importance ranking next to the paper's Table I ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.pmc.counters import COUNTER_NAMES, PAPER_IMPORTANCE
from repro.pmc.selection import CounterSelection, select_counters
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


@dataclass(frozen=True)
class Tab01Config:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    core_counts: Tuple[int, ...] = (4, 8, 12, 18)
    dvfs_indices: Tuple[int, ...] = (0, 4, 8)
    load_fractions: Tuple[float, ...] = (0.2, 0.5, 0.8)
    seconds_per_point: int = 20      # paper: 1000 s per combination
    covariance_threshold: float = 0.95
    seed: int = 7


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Tab01Config(services=("masstree", "moses"), seconds_per_point=8),
    "default": Tab01Config(seconds_per_point=30),
    "paper": Tab01Config(seconds_per_point=100),
}


@dataclass
class Tab01Result:
    selection: CounterSelection
    samples_collected: int

    def format_table(self) -> str:
        lines = [
            "Table I — PMC importance ranking (ours vs paper)",
            f"{'counter':34s} {'ours':>5s} {'paper':>6s} {'corr(lat)':>10s}",
        ]
        for name in COUNTER_NAMES:
            lines.append(
                f"{name:34s} {self.selection.importance_rank[name]:5d} "
                f"{PAPER_IMPORTANCE[name]:6d} "
                f"{self.selection.latency_correlation[name]:10.3f}"
            )
        lines.append(
            f"components for >=95% covariance: {self.selection.n_components}; "
            f"selected (distinct) counters: {len(self.selection.selected)}"
        )
        return "\n".join(lines)


def _sweep_service(
    service: str, config: Tab01Config, rng: np.random.Generator
) -> Tuple[List[List[float]], List[float]]:
    spec = ServerSpec()
    profile = get_profile(service)
    rows: List[List[float]] = []
    latencies: List[float] = []
    for cores in config.core_counts:
        for freq_index in config.dvfs_indices:
            for load in config.load_fractions:
                freq = spec.dvfs[freq_index]
                if profile.capacity_rps(cores, freq, spec.dvfs.max_ghz) < (
                    0.6 * load * profile.max_load_rps
                ):
                    continue  # hopelessly overloaded points skew nothing useful
                env = ColocationEnvironment(
                    EnvironmentConfig(spec=spec),
                    [profile],
                    {service: ConstantLoad(profile.max_load_rps, load, rng=rng)},
                    rng,
                )
                assignment = {
                    service: CoreAssignment(
                        cores=tuple(env.socket_core_ids[:cores]), freq_index=freq_index
                    )
                }
                for _ in range(config.seconds_per_point):
                    result = env.step(assignment)
                    observation = result.observations[service]
                    rows.append([observation.pmcs[c] for c in COUNTER_NAMES])
                    latencies.append(observation.p99_ms)
    return rows, latencies


def run(config: Tab01Config = Tab01Config()) -> Tab01Result:
    """Reproduce the Table I selection pipeline over all services."""
    rng = np.random.default_rng(config.seed)
    all_rows: List[List[float]] = []
    all_latencies: List[float] = []
    for service in config.services:
        rows, latencies = _sweep_service(service, config, rng)
        # Normalise latency per service so services with large absolute
        # targets do not dominate the pooled correlation.
        latencies = list(
            np.asarray(latencies) / get_profile(service).qos_target_ms
        )
        all_rows.extend(rows)
        all_latencies.extend(latencies)
    selection = select_counters(
        np.array(all_rows),
        np.array(all_latencies),
        COUNTER_NAMES,
        covariance_threshold=config.covariance_threshold,
    )
    return Tab01Result(selection=selection, samples_collected=len(all_rows))
