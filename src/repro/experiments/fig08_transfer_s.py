"""Figure 8: transfer learning with Twig-S.

The paper trains Twig-S on Masstree for 10 000 s, then transfers the
learned network (re-initialising the last layer) to Moses, Img-dnn and
Xapian at 50 % of max load, and compares the QoS guarantee and tardiness
against learning each service from scratch. Result: transfer learning cuts
the learning time by about a third while delivering the same tardiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.common import HarnessConfig, build_twig, make_environment
from repro.experiments.runner import run_manager
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class Fig08Config:
    source_service: str = "masstree"
    target_services: Tuple[str, ...] = ("moses", "img-dnn", "xapian")
    load_fraction: float = 0.5
    pretrain_steps: int = 6_000        # paper: 10 000 s
    adapt_steps: int = 3_000
    bucket: int = 300                  # paper: 300 s buckets
    qos_threshold: float = 90.0
    seed: int = 7


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig08Config(
        target_services=("xapian",), pretrain_steps=2_500, adapt_steps=1_500, bucket=250,
        qos_threshold=80.0,
    ),
    "default": Fig08Config(),
    "paper": Fig08Config(pretrain_steps=10_000, adapt_steps=6_000),
}


@dataclass
class TransferCurve:
    bucket_steps: List[int]
    with_transfer_qos: List[float]
    scratch_qos: List[float]
    with_transfer_tardiness: List[float]
    scratch_tardiness: List[float]

    def steps_to_qos(self, with_transfer: bool, threshold: float) -> int:
        series = self.with_transfer_qos if with_transfer else self.scratch_qos
        for step, qos in zip(self.bucket_steps, series):
            if qos >= threshold:
                return step
        return -1


@dataclass
class Fig08Result:
    curves: Dict[str, TransferCurve]
    qos_threshold: float

    def learning_time_reduction_pct(self, service: str) -> float:
        curve = self.curves[service]
        transfer = curve.steps_to_qos(True, self.qos_threshold)
        scratch = curve.steps_to_qos(False, self.qos_threshold)
        if transfer <= 0 or scratch <= 0:
            return float("nan")
        return 100.0 * (1.0 - transfer / scratch)

    def format_table(self) -> str:
        lines = [
            "Figure 8 — Twig-S transfer learning (masstree -> target @ 50% load)",
            f"{'target':9s} {'steps to %d%% (transfer)' % self.qos_threshold:>25s} "
            f"{'(scratch)':>10s} {'reduction':>10s}",
        ]
        for service, curve in self.curves.items():
            transfer = curve.steps_to_qos(True, self.qos_threshold)
            scratch = curve.steps_to_qos(False, self.qos_threshold)
            reduction = self.learning_time_reduction_pct(service)
            lines.append(
                f"{service:9s} {transfer:25d} {scratch:10d} {reduction:9.1f}%"
            )
        lines.append("paper: transfer learning reduces learning time by ~33%")
        return "\n".join(lines)


def _qos_curve(trace, service: str, bucket: int, steps: int) -> Tuple[List[int], List[float], List[float]]:
    target = trace.services[service].qos_target_ms
    bucket_steps, qos, tardiness = [], [], []
    for start in range(0, steps, bucket):
        window = np.asarray(trace.services[service].p99_ms[start:start + bucket])
        if window.size == 0:
            break
        bucket_steps.append(start + bucket)
        qos.append(float(np.mean(window <= target) * 100.0))
        tardiness.append(float(np.mean(window / target)))
    return bucket_steps, qos, tardiness


def run(config: Fig08Config = Fig08Config()) -> Fig08Result:
    harness = HarnessConfig(
        twig_epsilon_mid=config.pretrain_steps // 2,
        twig_epsilon_final=config.pretrain_steps,
    )
    source = get_profile(config.source_service)
    curves: Dict[str, TransferCurve] = {}
    for target_name in config.target_services:
        target = get_profile(target_name)
        # --- with transfer: pretrain on the source, swap, adapt ---------- #
        twig = build_twig([source], harness)
        env = make_environment([config.source_service], [config.load_fraction], config.seed)
        run_manager(twig, env, config.pretrain_steps)
        twig.transfer_to(config.source_service, target)
        # Rewind epsilon to a mildly exploratory point for adaptation.
        twig.agent.step_count = harness.twig_epsilon_mid
        adapt_env = make_environment([target_name], [config.load_fraction], config.seed + 1)
        transfer_trace = run_manager(twig, adapt_env, config.adapt_steps)

        # --- from scratch ------------------------------------------------ #
        scratch_harness = HarnessConfig(
            twig_epsilon_mid=max(config.adapt_steps // 2, 10),
            twig_epsilon_final=config.adapt_steps,
        )
        scratch = build_twig([target], scratch_harness, seed_offset=1)
        scratch_env = make_environment([target_name], [config.load_fraction], config.seed + 1)
        scratch_trace = run_manager(scratch, scratch_env, config.adapt_steps)

        steps, transfer_qos, transfer_tard = _qos_curve(
            transfer_trace, target_name, config.bucket, config.adapt_steps
        )
        _, scratch_qos, scratch_tard = _qos_curve(
            scratch_trace, target_name, config.bucket, config.adapt_steps
        )
        curves[target_name] = TransferCurve(
            bucket_steps=steps,
            with_transfer_qos=transfer_qos,
            scratch_qos=scratch_qos,
            with_transfer_tardiness=transfer_tard,
            scratch_tardiness=scratch_tard,
        )
    return Fig08Result(curves=curves, qos_threshold=config.qos_threshold)
