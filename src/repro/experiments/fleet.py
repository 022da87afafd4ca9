"""Fleet rollout: N sibling experiments stepped in lock-step.

The PCS/HiDVFS line of work (PAPERS.md) needs cluster-scale studies —
many nodes running the same colocation under one learned policy. This
experiment is the engine demo for that: N sibling environments (same
service mix, per-env deterministic seeds) driven either by the
vectorized in-process engine (``engine="vector"``: one fused
environment step, one batched act, one train round per tick) or by the
scalar engine (``engine="scalar"``: N independent sequential
``run_manager`` loops, one Twig each).

The two engines answer different questions — the vector fleet learns ONE
shared policy from N environments, the scalar engine learns N separate
policies — so their reward trajectories are not comparable head-to-head.
The scalar mode is the serial-throughput baseline, not an oracle: the
vector physics is checked against
:class:`~repro.sim.environment.ColocationEnvironment` stepped directly
(tests/test_engine_vector.py), not against this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import ENV_SEED_STRIDE, VectorEnvironment, make_sibling_environment
from repro.core.config import TwigConfig
from repro.core.twig import Twig
from repro.errors import ConfigurationError
from repro.experiments.runner import RunTrace, run_manager
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class FleetConfig:
    services: Tuple[str, ...] = ("masstree", "xapian")
    load_fractions: Tuple[float, ...] = (0.4, 0.5)
    num_envs: int = 8
    steps: int = 400
    seed: int = 7
    #: "vector" = batched in-process engine; "scalar" = N sequential
    #: scalar rollouts (the serial baseline).
    engine: str = "vector"
    epsilon_mid_steps: int = 150
    epsilon_final_steps: int = 300
    window: int = 100

    def __post_init__(self) -> None:
        if len(self.services) != len(self.load_fractions):
            raise ConfigurationError(
                f"{len(self.services)} services but {len(self.load_fractions)} load fractions"
            )
        if self.engine not in ("vector", "scalar"):
            raise ConfigurationError(
                f"engine must be 'vector' or 'scalar', got {self.engine!r}"
            )
        if self.num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {self.num_envs}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")


@dataclass
class FleetResult:
    engine: str
    num_envs: int
    steps: int
    qos_guarantee: List[Dict[str, float]]       # per env, per service
    mean_power_w: List[float]                   # per env
    traces: List[RunTrace] = field(default_factory=list, repr=False)

    def format_table(self) -> str:
        services = sorted(self.qos_guarantee[0]) if self.qos_guarantee else []
        lines = [
            f"Fleet rollout — {self.num_envs} envs x {self.steps} steps "
            f"(engine={self.engine})"
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


def _twig_config(config: FleetConfig) -> TwigConfig:
    return TwigConfig.fast(
        epsilon_mid_steps=config.epsilon_mid_steps,
        epsilon_final_steps=config.epsilon_final_steps,
    )


def _run_vector(config: FleetConfig) -> List[RunTrace]:
    venv = VectorEnvironment.from_services(
        list(config.services),
        dict(zip(config.services, config.load_fractions)),
        config.num_envs,
        config.seed,
    )
    manager = FleetTwig(
        [get_profile(s) for s in config.services],
        _twig_config(config),
        np.random.default_rng(config.seed + 1),
        num_envs=config.num_envs,
    )
    return run_fleet(manager, venv, config.steps)


def _run_scalar(config: FleetConfig) -> List[RunTrace]:
    traces = []
    for e in range(config.num_envs):
        env = make_sibling_environment(
            list(config.services),
            dict(zip(config.services, config.load_fractions)),
            config.seed + e * ENV_SEED_STRIDE,
        )
        manager = Twig(
            [get_profile(s) for s in config.services],
            _twig_config(config),
            np.random.default_rng(config.seed + 1 + e),
        )
        traces.append(run_manager(manager, env, config.steps))
    return traces


def run(config: FleetConfig = FleetConfig()) -> FleetResult:
    traces = _run_vector(config) if config.engine == "vector" else _run_scalar(config)
    window = min(config.window, config.steps)
    return FleetResult(
        engine=config.engine,
        num_envs=config.num_envs,
        steps=config.steps,
        qos_guarantee=[
            {s: t.qos_guarantee(s, window) for s in config.services} for t in traces
        ],
        mean_power_w=[t.mean_power_w(window) for t in traces],
        traces=traces,
    )
