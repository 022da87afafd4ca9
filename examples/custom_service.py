#!/usr/bin/env python
"""Bring your own service: define a profile and let Twig manage it.

Twig is service-agnostic — it only sees PMCs — so adding a new LC service
to the simulation is a matter of writing a :class:`ServiceProfile`. This
example defines a synthetic "rpc-gateway" service (short requests, bursty,
branch heavy, moderate memory traffic), characterises it (latency-vs-load
curve, Table II-style knee), and runs Twig-S on it without any
service-specific code anywhere in the manager.

Run:  python examples/custom_service.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Twig, TwigConfig
from repro.experiments import run_manager
from repro.server import CoreAssignment, ServerSpec
from repro.services import ConstantLoad, ServiceProfile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig

RPC_GATEWAY = ServiceProfile(
    name="rpc-gateway",
    cpu_ms_per_req=2.2,
    serial_fraction=0.01,
    floor_q99_ms=0.9,
    cv2=1.8,                      # bursty request mix
    freq_sensitivity=0.7,
    membw_per_req_mb=1.2,
    llc_working_set_mb=8.0,
    membw_sensitivity=1.0,
    llc_sensitivity=0.6,
    instr_per_req_m=3.5,
    base_cpi=1.1,
    llc_mpki=4.0,
    l1d_mpki=26.0,
    l1i_mpki=9.0,
    branch_per_instr=0.24,        # RPC demux is branch heavy
    branch_miss_rate=0.02,
    uops_per_instr=1.15,
    active_idle_util=0.35,
    max_load_rps=6000.0,
    qos_target_ms=7.0,
)


def characterise(spec: ServerSpec) -> None:
    print("latency-vs-load characterisation (18 cores @ 2.0 GHz):")
    for fraction in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0):
        rng = np.random.default_rng(1)
        env = ColocationEnvironment(
            EnvironmentConfig(spec=spec),
            [RPC_GATEWAY],
            {"rpc-gateway": ConstantLoad(RPC_GATEWAY.max_load_rps, fraction, rng=rng)},
            rng,
        )
        assignment = {
            "rpc-gateway": CoreAssignment(
                cores=tuple(env.socket_core_ids), freq_index=len(spec.dvfs) - 1
            )
        }
        p99 = np.median(
            [env.step(assignment).observations["rpc-gateway"].p99_ms for _ in range(15)]
        )
        marker = " <- target" if abs(p99 - RPC_GATEWAY.qos_target_ms) < 2 else ""
        print(f"  load {fraction * 100:4.0f}%: p99 {p99:7.2f} ms{marker}")
    print()


def main() -> None:
    spec = ServerSpec()
    characterise(spec)

    steps = 6000
    config = TwigConfig.fast(epsilon_mid_steps=steps // 2, epsilon_final_steps=int(steps * 0.8))
    twig = Twig([RPC_GATEWAY], config, np.random.default_rng(42), spec=spec)
    rng = np.random.default_rng(7)
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [RPC_GATEWAY],
        {"rpc-gateway": ConstantLoad(RPC_GATEWAY.max_load_rps, 0.4, rng=np.random.default_rng(8))},
        rng,
    )
    trace = run_manager(twig, env, steps)
    print(f"twig-s on rpc-gateway @ 40% load, after {steps} steps:")
    print(f"  qos guarantee (last 300): {trace.qos_guarantee('rpc-gateway', 300):.1f}%")
    print(f"  allocation: {trace.mean_cores('rpc-gateway', 300):.1f} cores @ "
          f"{np.mean(trace.services['rpc-gateway'].frequency_ghz[-300:]):.2f} GHz")
    print(f"  power: {trace.mean_power_w(300):.1f} W")


if __name__ == "__main__":
    main()
