"""Frozen node step of the vector engine from before install-time arrays.

The engine used to recompute everything it derives from a node's pins,
DVFS levels, LLC ways and online flags on every tick: the capacity
kernel's pin counts and masks, each core's clock and voltage, the
frequency-scaled service times and the LLC eviction terms. It also ran
the Erlang-C wait twice per (node, service), once at the offered load and
once at the stability edge, and kept the one its regime needed. These
are that code's free functions over the engine's arrays, and
:func:`reference_engine` builds an engine class whose install and step
run them: stepped in lock-step with the package's engine on the same
seeds and batches, it must give the same ``batch.arrays`` bytes on every
tick and the same ``state_dict`` bytes
(``tests/test_engine_reference.py``).

Do not use these functions outside tests.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import StepBatch, _FIELD_ARRAYS, _build_observations
from repro.pmc.counters import COUNTER_NAMES
from repro.services.queueing import erlang_c_batch
from repro.sim.node import StepResult, emit_step_events


def effective_capacity_matrix(
    membership: np.ndarray, online: np.ndarray, per_core_demand: np.ndarray
) -> np.ndarray:
    """Demand-aware timeshared core-equivalents from the pin matrix, the
    online mask and the per-core demand, all derived terms recomputed."""
    membership = np.asarray(membership, dtype=bool)
    online = np.asarray(online, dtype=bool)
    demand = np.asarray(per_core_demand, dtype=np.float64)
    k = membership.sum(axis=-2)                                   # (..., C)
    demand_total = (membership * demand[..., :, None]).sum(axis=-2)
    others = demand_total[..., None, :] - demand[..., :, None]    # (..., S, C)
    share = np.clip(1.0 - others, 1.0 / np.maximum(k, 1)[..., None, :], 1.0)
    usable = np.where(membership & online[..., None, :], share, 0.0)
    return np.maximum(usable.sum(axis=-1), 1e-6)


def wait_q99_ms(
    arrival: np.ndarray, mu: np.ndarray, servers: np.ndarray, cv2: np.ndarray
) -> np.ndarray:
    """Vectorized ``LCService._stable_wait_q99_ms``; the step calls it
    twice, at the offered load and at the stability edge."""
    offered = arrival / mu
    p_wait = erlang_c_batch(servers, np.maximum(offered, 0.0))
    p_wait = np.minimum(1.0, p_wait * (1.0 + cv2) / 2.0)
    theta = servers * mu - arrival
    with np.errstate(divide="ignore", invalid="ignore"):
        wait = 1000.0 * np.log(p_wait / 0.01) / theta
    wait = np.where(theta <= 0, np.inf, wait)
    wait = np.where(p_wait <= 0.01, 0.0, wait)
    return np.where(arrival <= 0, 0.0, wait)


def install_arithmetic(
    pins: np.ndarray, level: np.ndarray, ladder: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each core's DVFS index (the highest pinned to it, 0 unpinned), each
    service's core count and clock (its fastest core's) of ``(n, S, C)``
    pins and ``(n, S)`` levels."""
    core_level = np.where(pins, level[:, :, None], 0).max(axis=1)
    core_ghz = ladder[core_level][:, None, :]
    return core_level, pins.sum(axis=2), np.where(pins, core_ghz, -np.inf).max(axis=2)


def reference_install(engine, batch: AssignmentBatch) -> None:
    """Write ``batch``'s changed rows (it is assumed valid) and their
    per-service cores, clock and LLC quota."""
    changed = np.flatnonzero(
        (batch.pins != engine._m_membership).any(axis=(1, 2))
        | (batch.freq != engine._m_level).any(axis=1)
        | (batch.ways != engine._m_ways).any(axis=1)
    )
    if not changed.size:
        return
    pins, level, ways = batch.pins[changed], batch.freq[changed], batch.ways[changed]
    engine._migrations[changed] += (pins != engine._m_membership[changed]).sum(axis=2)
    engine._m_membership[changed] = pins
    engine._m_level[changed] = level
    engine._m_ways[changed] = ways
    core_level, n_cores, freq = install_arithmetic(pins, level, engine._ladder)
    engine._m_freq_index[changed] = core_level
    engine._ref_n_cores[changed] = n_cores
    engine._ref_freq[changed] = freq
    engine._ref_llc_quota[changed] = ways * engine.spec.socket.mb_per_way


def reference_advance(engine) -> StepBatch:
    """Advance every node one interval, every derived term recomputed."""
    self = engine
    E, S, C = self.num_envs, len(self.names), len(self._core_ids)
    interval = self.config.interval_s
    membership = self._m_membership
    online = self._m_online
    freq_index = self._m_freq_index
    n_cores = self._ref_n_cores
    freq = self._ref_freq
    llc_quota = self._ref_llc_quota

    arrivals = self._gather_arrivals()
    backlog = self._backlog

    freq_factor = self._alpha * (self.spec.dvfs.max_ghz / freq) + (1.0 - self._alpha)
    service_ms_base = self._cpu_ms * freq_factor
    offered = arrivals + backlog / interval
    per_core_demand = np.minimum(
        offered * service_ms_base / 1000.0 / np.maximum(n_cores, 1.0), 1.5
    )
    capacities = effective_capacity_matrix(membership, online, per_core_demand)

    eff_servers = capacities / (1.0 + self._serial_fraction * (capacities - 1.0))
    capacity_uncontended = eff_servers * 1000.0 / service_ms_base
    expected = np.minimum(offered, capacity_uncontended)
    interference = self._interference
    membw_expected = expected * self._membw_per_req / 1024.0
    bw_util = membw_expected.sum(axis=1) / interference.membw_capacity_gbps
    pressure = interference.bandwidth_pressure_batch(bw_util)
    llc_cap = interference.llc_capacity_mb
    quota_total = np.minimum(
        np.minimum(llc_quota, llc_cap).sum(axis=1), llc_cap
    )
    shared_capacity = np.maximum(llc_cap - quota_total, 1e-9)
    working_set = self._working_set * 1.0
    shared_ws = np.where(llc_quota <= 0, working_set, 0.0).sum(axis=1)
    has_quota = llc_quota > 0
    ws_positive = working_set > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        evicted_isolated = np.maximum(0.0, 1.0 - llc_quota / working_set)
        share = shared_capacity[:, None] * working_set / shared_ws[:, None]
        evicted_shared = np.maximum(0.0, 1.0 - share / working_set)
    evicted = np.where(
        has_quota,
        np.where(ws_positive, evicted_isolated, 0.0),
        np.where(
            (shared_ws > shared_capacity)[:, None] & ws_positive,
            evicted_shared,
            0.0,
        ),
    )
    miss_inflation = 1.0 + evicted
    bw_term = self._membw_sens * interference.bandwidth_strength * pressure[:, None]
    llc_term = self._llc_sens * interference.llc_strength * evicted
    inflation = 1.0 + bw_term + llc_term

    service_ms = service_ms_base * inflation
    floor_ms = self._floor_ms * freq_factor * inflation
    mu = 1000.0 / service_ms
    capacity = eff_servers * mu
    stable = offered < 0.995 * capacity

    wait_stable = wait_q99_ms(offered, mu, eff_servers, self._cv2)
    overload_backlog = np.clip(
        backlog + (arrivals - capacity) * interval, 0.0, 2.0 * capacity
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        queueing_ms = np.where(
            capacity > 0, 1000.0 * (overload_backlog / capacity), 0.0
        )
    edge_wait = wait_q99_ms(0.995 * capacity, mu, eff_servers, self._cv2)
    p99 = np.where(
        stable,
        floor_ms + wait_stable,
        floor_ms + service_ms + np.maximum(queueing_ms, edge_wait),
    )
    new_backlog = np.where(stable, 0.0, overload_backlog)
    throughput = np.where(stable, offered, capacity)

    lat_draws = 1 if self.config.latency_noise_std > 0 else 0
    tel_draws = len(COUNTER_NAMES) if self.config.telemetry_noise_std > 0 else 0
    block = lat_draws + tel_draws
    total_draws = S * block + 1
    z = np.empty((E, total_draws))
    for rng, row in zip(self._rngs, z):
        rng.standard_normal(out=row)
    per_service = z[:, : S * block].reshape(E, S, block)
    if lat_draws:
        p99 = p99 * np.exp(self.config.latency_noise_std * per_service[:, :, 0])

    mean_ms = (
        floor_ms / 3.0
        + (p99 - floor_ms) / 4.6
        + service_ms / np.maximum(eff_servers, 1.0)
    )
    busy = np.minimum(offered, capacity) * service_ms / 1000.0 * interval
    utilization = np.clip(busy / (capacities * interval), 0.0, 1.0)
    instructions = throughput * interval * self._instr_per_req * 1e6
    membw_out = throughput * self._membw_per_req / 1024.0

    spin_seconds = np.maximum(self._aiu * (capacities * interval - busy), 0.0)
    active_seconds = busy + spin_seconds
    core_cycles = active_seconds * freq * 1e9
    ref_cycles = active_seconds * 2.0e9
    spin_cycles = spin_seconds * freq * 1e9
    spin_instr = spin_cycles * 0.8
    spin_branches = spin_instr * 0.30
    kilo_instr = instructions / 1000.0
    branch_instr = instructions * self._bpi + spin_branches
    branch_misses = instructions * self._bpi * self._bmr + spin_branches * 0.001
    total_instr = instructions + spin_instr
    counters = np.stack(
        [
            core_cycles,
            total_instr,
            core_cycles,
            ref_cycles,
            total_instr * self._uops,
            branch_instr,
            branch_misses,
            branch_misses,
            kilo_instr * self._llc_mpki * miss_inflation,
            kilo_instr * self._l1d_mpki,
            kilo_instr * self._l1i_mpki,
        ],
        axis=-1,
    )
    if tel_draws:
        tel_z = per_service[:, :, lat_draws:]
        counters = counters * (1.0 + self.config.telemetry_noise_std * tel_z)
    counters = np.maximum(counters, 0.0)

    effective_util = utilization + self._aiu * (1.0 - utilization)
    core_util = np.clip(
        (membership * effective_util[:, :, None]).sum(axis=1), 0.0, 1.0
    )
    allocated = membership.any(axis=1)
    core_freq = self._ladder[freq_index]
    voltage = self.spec.voltage_base_v + self.spec.voltage_slope * core_freq
    dynamic_per_core = np.where(
        allocated,
        self.spec.dynamic_coeff * voltage * voltage * core_freq * core_util,
        0.0,
    )
    if self.config.hotplug_unused:
        online_count = allocated.sum(axis=1)
    else:
        online_count = np.full(E, C)
    true_power = (
        self.spec.idle_power_w
        + self.spec.core_static_w * online_count
        + dynamic_per_core.sum(axis=1)
        + self.spec.uncore_bw_w * np.clip(bw_util, 0.0, 1.0)
    )
    rapl_noise = 1.0 + self.config.rapl_noise_std * z[:, -1]
    readings = np.maximum(true_power * rapl_noise, 0.0)

    energy = self._energy + readings * interval
    clock = self._clock + 1
    self._backlog, self._energy, self._clock = new_backlog, energy, clock
    self._reading = readings

    arrays = {
        "arrivals": arrivals,
        "throughput": throughput,
        "p99": p99,
        "mean_ms": mean_ms,
        "utilization": utilization,
        "capacity": capacity,
        "backlog": new_backlog,
        "cores": capacities,
        "frequency_ghz": freq.copy(),
        "inflation": inflation,
        "miss_inflation": miss_inflation,
        "membw_gbps": membw_out,
        "busy_core_seconds": busy,
        "instructions": instructions,
        "counters": counters,
        "qos_target": self._qos_target,
        "power_w": readings,
        "true_power_w": true_power,
        "membw_utilization": bw_util,
        "energy_j": energy,
        "time": clock,
    }
    eager: Dict[int, StepResult] = {}
    traced = self.trace.enabled
    visit = (
        range(E) if traced
        else [e for e, injector in enumerate(self.faults) if injector is not None]
    )
    for e in visit:
        injector, time = self.faults[e], int(clock[e])
        pending = injector is not None and injector.active_at(time)
        if not pending and not traced:
            continue
        observations = _build_observations(self.names, interval, arrays, e)
        applied = []
        if pending:
            observations, applied = injector.apply(time, observations, {})
            for i, name in enumerate(self.names):
                obs = observations[name]
                for field, key in _FIELD_ARRAYS.items():
                    arrays[key][e, i] = getattr(obs.interval, field)
                counters[e, i] = [obs.pmcs[counter] for counter in COUNTER_NAMES]
        step_result = StepResult(
            time=time,
            observations=observations,
            socket_power_w=float(readings[e]),
            true_power_w=float(true_power[e]),
            membw_utilization=float(bw_util[e]),
            energy_j=float(energy[e]),
        )
        eager[e] = step_result
        if traced:
            emit_step_events(
                self.trace, self._streaks[e], step_result, applied,
                **{self.index_tag: e},
            )
    batch = StepBatch(self.names, interval, arrays)
    for e, step_result in eager.items():
        batch.set_result(e, step_result)
    self._post_step(batch, arrays)
    return batch


def reference_engine(base: type) -> type:
    """``base`` (the vector engine or the cluster) with the frozen install
    and step; it keeps its own per-service cores, clocks and LLC quotas."""

    class Reference(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shape = (self.num_envs, len(self.names))
            self._ref_n_cores = np.zeros(shape)
            self._ref_freq = np.zeros(shape)
            self._ref_llc_quota = np.zeros(shape)

        _install_assignments = reference_install
        _advance = reference_advance

    Reference.__name__ = Reference.__qualname__ = f"Reference{base.__name__}"
    return Reference
