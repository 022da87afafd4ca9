"""Shared builders for the manager-comparison experiments.

Every Figure 5-13 experiment needs the same scaffolding: build an
environment for a service mix at given loads, build each task manager,
train/run it, and summarise QoS guarantee + energy over the paper's
measurement window. The scaled-down step counts here preserve the paper's
methodology (learning phase, then summarise over the last 300 s / 600 s)
at a tractable runtime; :data:`HARNESS` holds the budgets of each scale,
the paper's among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import HeraclesManager, HipsterManager, PartiesManager, StaticManager
from repro.core import Twig, TwigConfig
from repro.experiments.runner import RunTrace, run_manager
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad, LoadGenerator
from repro.services.profiles import ServiceProfile, get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


@dataclass(frozen=True)
class HarnessConfig:
    """Step budgets for one manager-vs-baselines comparison."""

    twig_steps: int = 8_000
    twig_epsilon_mid: int = 3_000
    twig_epsilon_final: int = 6_000
    hipster_steps: int = 4_000
    hipster_learning_phase: int = 2_500
    heracles_steps: int = 600
    parties_steps: int = 1_200
    static_steps: int = 300
    window: int = 300              # paper: last 300 s (600 s for PARTIES runs)
    parties_window: int = 600
    seed: int = 7

    @classmethod
    def quick(cls) -> "HarnessConfig":
        """Very small budgets for smoke tests."""
        return cls(
            twig_steps=1_200,
            twig_epsilon_mid=500,
            twig_epsilon_final=900,
            hipster_steps=800,
            hipster_learning_phase=500,
            heracles_steps=300,
            parties_steps=400,
            static_steps=120,
            window=120,
            parties_window=200,
        )

    @classmethod
    def paper(cls) -> "HarnessConfig":
        """The paper's full schedule (slow: tens of minutes per cell)."""
        return cls(
            twig_steps=11_000,
            twig_epsilon_mid=10_000,
            twig_epsilon_final=25_000,
            hipster_steps=11_000,
            hipster_learning_phase=7_500,
            heracles_steps=1_000,
            parties_steps=1_200,
            static_steps=600,
            window=300,
            parties_window=600,
        )


#: The harness budgets of each scale (:data:`repro.experiments.registry.SCALES`).
HARNESS: Dict[str, HarnessConfig] = {
    "quick": HarnessConfig.quick(),
    "default": HarnessConfig(),
    "paper": HarnessConfig.paper(),
}


@dataclass
class ManagerSummary:
    """One manager's outcome on one workload cell."""

    manager: str
    qos_guarantee: Dict[str, float]
    mean_power_w: float
    normalized_energy: float
    mean_cores: Dict[str, float]
    mean_frequency_ghz: Dict[str, float]
    migrations: Dict[str, int]
    trace: Optional[RunTrace] = field(default=None, repr=False)


def make_environment(
    services: Sequence[str],
    load_fractions: Sequence[float],
    seed: int,
    spec: Optional[ServerSpec] = None,
    load_generators: Optional[Mapping[str, LoadGenerator]] = None,
) -> ColocationEnvironment:
    """A fresh environment for a service mix at fixed load fractions."""
    spec = spec or ServerSpec()
    profiles = [get_profile(s) for s in services]
    if load_generators is None:
        load_generators = {
            name: ConstantLoad(
                get_profile(name).max_load_rps,
                fraction,
                rng=np.random.default_rng(seed + 101 + i),
            )
            for i, (name, fraction) in enumerate(zip(services, load_fractions))
        }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        profiles,
        dict(load_generators),
        np.random.default_rng(seed),
    )


def build_twig(
    profiles: Sequence[ServiceProfile],
    harness: HarnessConfig,
    spec: Optional[ServerSpec] = None,
    seed_offset: int = 0,
    **config_overrides,
) -> Twig:
    config = TwigConfig.fast(
        epsilon_mid_steps=harness.twig_epsilon_mid,
        epsilon_final_steps=harness.twig_epsilon_final,
    )
    if config_overrides:
        config = config.scaled(**config_overrides)
    return Twig(
        list(profiles),
        config,
        np.random.default_rng(42 + seed_offset),
        spec=spec or ServerSpec(),
    )


def summarize(
    trace: RunTrace,
    window: int,
    baseline_power_w: float,
    keep_trace: bool = False,
) -> ManagerSummary:
    services = list(trace.services)
    return ManagerSummary(
        manager=trace.manager_name,
        qos_guarantee={s: trace.qos_guarantee(s, window) for s in services},
        mean_power_w=trace.mean_power_w(window),
        normalized_energy=trace.mean_power_w(window) / baseline_power_w,
        mean_cores={s: trace.mean_cores(s, window) for s in services},
        mean_frequency_ghz={
            s: float(np.mean(trace.services[s].frequency_ghz[-window:]))
            for s in services
        },
        migrations=dict(trace.migrations),
        trace=trace if keep_trace else None,
    )


def run_single_service_comparison(
    service: str,
    load_fraction: float,
    harness: HarnessConfig,
    managers: Sequence[str] = ("static", "heracles", "hipster", "twig"),
    keep_traces: bool = False,
    env_factory: Optional[Callable[[int], ColocationEnvironment]] = None,
) -> Dict[str, ManagerSummary]:
    """Twig-S vs the single-service baselines on one (service, load) cell."""
    spec = ServerSpec()
    profile = get_profile(service)

    def fresh_env(offset: int) -> ColocationEnvironment:
        if env_factory is not None:
            return env_factory(offset)
        return make_environment([service], [load_fraction], harness.seed + offset, spec)

    static_trace = run_manager(
        StaticManager([service], spec=spec), fresh_env(0), harness.static_steps
    )
    baseline_power = static_trace.mean_power_w()

    results: Dict[str, ManagerSummary] = {}
    if "static" in managers:
        results["static"] = summarize(static_trace, harness.static_steps, baseline_power, keep_traces)
    if "heracles" in managers:
        trace = run_manager(
            HeraclesManager(profile, spec=spec), fresh_env(0), harness.heracles_steps
        )
        results["heracles"] = summarize(trace, harness.window, baseline_power, keep_traces)
    if "hipster" in managers:
        manager = HipsterManager(
            profile,
            np.random.default_rng(3),
            spec=spec,
            learning_phase_steps=harness.hipster_learning_phase,
        )
        trace = run_manager(manager, fresh_env(0), harness.hipster_steps)
        results["hipster"] = summarize(trace, harness.window, baseline_power, keep_traces)
    if "twig" in managers:
        twig = build_twig([profile], harness)
        trace = run_manager(twig, fresh_env(0), harness.twig_steps)
        # Summarised over the final window of the run, after epsilon has
        # annealed to its floor — the paper's methodology ("after the first
        # 10 000 s"); online learning continues through the window.
        results["twig-s"] = summarize(trace, harness.window, baseline_power, keep_traces)
    return results


def run_colocated_comparison(
    services: Tuple[str, str],
    load_fractions: Tuple[float, float],
    harness: HarnessConfig,
    managers: Sequence[str] = ("static", "parties", "twig"),
    keep_traces: bool = False,
) -> Dict[str, ManagerSummary]:
    """Twig-C vs PARTIES vs static on one colocated cell."""
    spec = ServerSpec()
    profiles = [get_profile(s) for s in services]

    def fresh_env(offset: int) -> ColocationEnvironment:
        return make_environment(list(services), list(load_fractions), harness.seed + offset, spec)

    static_trace = run_manager(
        StaticManager(list(services), spec=spec), fresh_env(0), harness.static_steps
    )
    baseline_power = static_trace.mean_power_w()

    results: Dict[str, ManagerSummary] = {}
    if "static" in managers:
        results["static"] = summarize(static_trace, harness.static_steps, baseline_power, keep_traces)
    if "parties" in managers:
        manager = PartiesManager(profiles, np.random.default_rng(3), spec=spec)
        trace = run_manager(manager, fresh_env(0), harness.parties_steps)
        results["parties"] = summarize(trace, harness.parties_window, baseline_power, keep_traces)
    if "twig" in managers:
        twig = build_twig(profiles, harness)
        trace = run_manager(twig, fresh_env(0), harness.twig_steps)
        results["twig-c"] = summarize(trace, harness.parties_window, baseline_power, keep_traces)
    return results
