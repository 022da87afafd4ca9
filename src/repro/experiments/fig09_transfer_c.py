"""Figure 9: transfer learning with Twig-C.

The paper first trains Twig-C on Moses + Masstree (Moses at 50 %, Masstree
at 20 % of max load), then swaps Moses for Xapian after 10 000 s. With
transfer learning the agent adapts to the service change in a handful of
time steps, matching the QoS guarantee and energy of a from-scratch run;
without transfer learning the agent suffers a long low-QoS, high-energy
period while re-learning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments.common import HarnessConfig, build_twig, make_environment
from repro.experiments.runner import run_manager
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class Fig09Config:
    keep_service: str = "masstree"
    initial_service: str = "moses"
    swapped_service: str = "xapian"
    keep_load: float = 0.2
    swap_load: float = 0.5
    pretrain_steps: int = 6_000       # paper: 10 000 s
    adapt_steps: int = 3_000
    bucket: int = 300
    seed: int = 7


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig09Config(pretrain_steps=2_500, adapt_steps=1_500, bucket=250),
    "default": Fig09Config(),
    "paper": Fig09Config(pretrain_steps=10_000, adapt_steps=6_000),
}


@dataclass
class Fig09Result:
    bucket_steps: List[int]
    transfer_qos_kept: List[float]
    transfer_qos_new: List[float]
    transfer_power_w: List[float]
    scratch_qos_kept: List[float]
    scratch_qos_new: List[float]
    scratch_power_w: List[float]

    def format_table(self) -> str:
        lines = [
            "Figure 9 — Twig-C transfer learning (moses -> xapian swap)",
            f"{'steps':>6s} | {'transfer: kept/new qos, power':>32s} | "
            f"{'scratch: kept/new qos, power':>32s}",
        ]
        for i, step in enumerate(self.bucket_steps):
            lines.append(
                f"{step:6d} | {self.transfer_qos_kept[i]:6.1f}/{self.transfer_qos_new[i]:6.1f}  "
                f"{self.transfer_power_w[i]:7.1f} W | "
                f"{self.scratch_qos_kept[i]:6.1f}/{self.scratch_qos_new[i]:6.1f}  "
                f"{self.scratch_power_w[i]:7.1f} W"
            )
        return "\n".join(lines)


def _buckets(trace, kept: str, new: str, bucket: int, steps: int):
    target_kept = trace.services[kept].qos_target_ms
    target_new = trace.services[new].qos_target_ms
    bucket_steps, qos_kept, qos_new, power = [], [], [], []
    for start in range(0, steps, bucket):
        sl = slice(start, start + bucket)
        kept_window = np.asarray(trace.services[kept].p99_ms[sl])
        new_window = np.asarray(trace.services[new].p99_ms[sl])
        if new_window.size == 0:
            break
        bucket_steps.append(start + bucket)
        qos_kept.append(float(np.mean(kept_window <= target_kept) * 100.0))
        qos_new.append(float(np.mean(new_window <= target_new) * 100.0))
        power.append(float(np.mean(trace.true_power_w[sl])))
    return bucket_steps, qos_kept, qos_new, power


def run(config: Fig09Config = Fig09Config()) -> Fig09Result:
    harness = HarnessConfig(
        twig_epsilon_mid=config.pretrain_steps // 2,
        twig_epsilon_final=config.pretrain_steps,
    )
    kept = get_profile(config.keep_service)
    initial = get_profile(config.initial_service)
    swapped = get_profile(config.swapped_service)

    # --- with transfer ---------------------------------------------------- #
    twig = build_twig([kept, initial], harness)
    env = make_environment(
        [config.keep_service, config.initial_service],
        [config.keep_load, config.swap_load],
        config.seed,
    )
    run_manager(twig, env, config.pretrain_steps)
    env.swap_service(
        config.initial_service,
        swapped,
        ConstantLoad(
            swapped.max_load_rps, config.swap_load, rng=np.random.default_rng(config.seed + 5)
        ),
    )
    twig.transfer_to(config.initial_service, swapped)
    twig.agent.step_count = harness.twig_epsilon_mid  # mildly exploratory again
    transfer_trace = run_manager(twig, env, config.adapt_steps)

    # --- from scratch ------------------------------------------------------ #
    scratch_harness = HarnessConfig(
        twig_epsilon_mid=max(config.adapt_steps // 2, 10),
        twig_epsilon_final=config.adapt_steps,
    )
    scratch = build_twig([kept, swapped], scratch_harness, seed_offset=1)
    scratch_env = make_environment(
        [config.keep_service, config.swapped_service],
        [config.keep_load, config.swap_load],
        config.seed + 1,
    )
    scratch_trace = run_manager(scratch, scratch_env, config.adapt_steps)

    steps, t_kept, t_new, t_power = _buckets(
        transfer_trace, config.keep_service, config.swapped_service,
        config.bucket, config.adapt_steps,
    )
    _, s_kept, s_new, s_power = _buckets(
        scratch_trace, config.keep_service, config.swapped_service,
        config.bucket, config.adapt_steps,
    )
    return Fig09Result(
        bucket_steps=steps,
        transfer_qos_kept=t_kept,
        transfer_qos_new=t_new,
        transfer_power_w=t_power,
        scratch_qos_kept=s_kept,
        scratch_qos_new=s_new,
        scratch_power_w=s_power,
    )
