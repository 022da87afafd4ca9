"""Figure 7: QoS guarantee over learning time, Twig-S vs Hipster.

The paper anneals Twig's epsilon to 0.1 in 5 000 s and ends Hipster's
learning phase at 5 000 s, then plots the QoS guarantee for Masstree in
500 s buckets. Hipster starts higher (its heuristic embeds prior knowledge
of the platform's power efficiency ordering) but Twig passes 80 % QoS
guarantee faster than Hipster improves, without any prior knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines import HipsterManager
from repro.experiments.common import build_twig, make_environment
from repro.experiments.common import HarnessConfig
from repro.experiments.runner import run_manager
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class Fig07Config:
    service: str = "masstree"
    load_fraction: float = 0.5
    total_steps: int = 6_000          # paper: 10 000 s
    bucket: int = 500                 # paper: 500 s buckets
    twig_epsilon_mid: int = 3_000     # paper: anneal to 0.1 by 5 000 s
    hipster_learning_phase: int = 3_000
    seed: int = 7


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig07Config(
        total_steps=2_500, bucket=250, twig_epsilon_mid=1_200, hipster_learning_phase=1_200
    ),
    "default": Fig07Config(),
    "paper": Fig07Config(
        total_steps=10_000, twig_epsilon_mid=5_000, hipster_learning_phase=5_000
    ),
}


@dataclass
class Fig07Result:
    bucket_steps: List[int]
    twig_qos: List[float]
    hipster_qos: List[float]

    def steps_to_reach(self, who: str, threshold: float) -> int:
        """First bucket end-step at which the QoS guarantee passes threshold."""
        series = self.twig_qos if who == "twig" else self.hipster_qos
        for step, qos in zip(self.bucket_steps, series):
            if qos >= threshold:
                return step
        return -1

    def format_table(self) -> str:
        lines = [
            "Figure 7 — QoS guarantee over learning time (masstree @ 50%)",
            f"{'steps':>6s} {'twig-s':>8s} {'hipster':>8s}",
        ]
        for step, tq, hq in zip(self.bucket_steps, self.twig_qos, self.hipster_qos):
            lines.append(f"{step:6d} {tq:7.1f}% {hq:7.1f}%")
        lines.append(
            f"steps to 80% QoS: twig {self.steps_to_reach('twig', 80.0)}, "
            f"hipster {self.steps_to_reach('hipster', 80.0)}"
        )
        return "\n".join(lines)


def run(config: Fig07Config = Fig07Config()) -> Fig07Result:
    profile = get_profile(config.service)
    harness = HarnessConfig(
        twig_epsilon_mid=config.twig_epsilon_mid,
        twig_epsilon_final=config.total_steps,
    )
    twig = build_twig([profile], harness)
    twig_trace = run_manager(
        twig,
        make_environment([config.service], [config.load_fraction], config.seed),
        config.total_steps,
    )
    hipster = HipsterManager(
        profile,
        np.random.default_rng(3),
        learning_phase_steps=config.hipster_learning_phase,
    )
    hipster_trace = run_manager(
        hipster,
        make_environment([config.service], [config.load_fraction], config.seed),
        config.total_steps,
    )

    target = twig_trace.services[config.service].qos_target_ms
    bucket_steps, twig_qos, hipster_qos = [], [], []
    for start in range(0, config.total_steps, config.bucket):
        end = start + config.bucket
        bucket_steps.append(end)
        for trace, series in ((twig_trace, twig_qos), (hipster_trace, hipster_qos)):
            p99 = np.asarray(trace.services[config.service].p99_ms[start:end])
            series.append(float(np.mean(p99 <= target) * 100.0))
    return Fig07Result(
        bucket_steps=bucket_steps, twig_qos=twig_qos, hipster_qos=hipster_qos
    )
