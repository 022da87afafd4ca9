"""Figure 1: tail-latency prediction from multiple PMCs vs IPC alone.

The paper runs Memcached and Web-Search with all cores at the highest DVFS
setting while varying the incoming load, collects 30 000 samples, and
trains estimators of tail latency from (a) the 11 normalised PMCs and
(b) IPC only. The PMC estimator's error distribution is far tighter: for
Memcached the paper reports mean error -0.286 ms (sigma 0.63) with PMCs vs
0.45 ms (sigma 2.13) with IPC, and a >= 1.91x higher probability of zero
error; similarly for Web-Search.

This module reproduces the experiment end to end on the simulated server:
sweep load, record smoothed/normalised PMC states and measured p99, train
two MLP regressors with the repro.nn stack, and report the same summary
statistics plus per-latency-bucket violin statistics (median error and
interquartile spread).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import MLP, Adam, mse_loss
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import SystemMonitor
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.loadgen import TraceLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from repro.sim.telemetry import TelemetrySynthesizer


@dataclass(frozen=True)
class Fig01Config:
    services: Tuple[str, ...] = ("memcached", "web-search")
    samples: int = 3000            # paper: 30 000; scaled for runtime
    train_fraction: float = 0.7
    hidden: Tuple[int, ...] = (64, 32)
    epochs: int = 600
    learning_rate: float = 5e-3
    latency_buckets: int = 5
    load_low: float = 0.05
    load_high: float = 0.85        # stay this side of sustained overload
    load_segment: int = 20         # load changes every N intervals (slow sweep)
    zero_error_band_fraction: float = 0.05  # band = fraction of median latency
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.samples < 100:
            raise ConfigurationError("need at least 100 samples")
        if not 0.1 < self.train_fraction < 0.95:
            raise ConfigurationError("train_fraction out of range")


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig01Config(samples=1_200, epochs=300),
    "default": Fig01Config(samples=4_000, epochs=800),
    "paper": Fig01Config(samples=30_000, epochs=2_000),
}


@dataclass
class PredictorStats:
    """Error statistics for one (service, estimator) pair."""

    mean_error_ms: float
    std_error_ms: float
    zero_error_density: float  # fraction of |error| < band
    bucket_medians: List[float] = field(default_factory=list)
    bucket_iqrs: List[float] = field(default_factory=list)


@dataclass
class Fig01Result:
    per_service: Dict[str, Dict[str, PredictorStats]]
    zero_density_gain: Dict[str, float]  # PMC density / IPC density

    def format_table(self) -> str:
        lines = [
            "Figure 1 — tail-latency prediction error (PMCs vs IPC)",
            f"{'service':12s} {'estimator':6s} {'mean(ms)':>9s} {'std(ms)':>9s} {'P(|e|<band)':>12s}",
        ]
        for service, stats in self.per_service.items():
            for kind in ("pmc", "ipc"):
                s = stats[kind]
                lines.append(
                    f"{service:12s} {kind:6s} {s.mean_error_ms:9.3f} "
                    f"{s.std_error_ms:9.3f} {s.zero_error_density:12.3f}"
                )
            lines.append(
                f"{service:12s} zero-error density gain (PMC/IPC): "
                f"{self.zero_density_gain[service]:.2f}x"
            )
        return "\n".join(lines)


def _collect_samples(
    service_name: str, config: Fig01Config, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the load sweep; returns (pmc_states, ipc, latency)."""
    spec = ServerSpec()
    profile = get_profile(service_name)
    # Slowly varying load: hold each level for several intervals so the
    # eta-smoothed PMC state corresponds to the latency it must predict.
    levels = rng.uniform(
        config.load_low, config.load_high,
        size=config.samples // config.load_segment + 1,
    )
    fractions = np.repeat(levels, config.load_segment)[: config.samples]
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {
            service_name: TraceLoad(
                profile.max_load_rps, fractions, rng=rng, jitter_std=0.02
            )
        },
        rng,
    )
    monitor = SystemMonitor(CounterCatalogue(spec).max_values())
    assignment = {
        service_name: CoreAssignment(
            cores=tuple(env.socket_core_ids), freq_index=len(spec.dvfs) - 1
        )
    }
    states, ipcs, latencies = [], [], []
    for _ in range(config.samples):
        result = env.step(assignment)
        observation = result.observations[service_name]
        states.append(monitor.observe(service_name, observation.pmcs))
        ipcs.append(TelemetrySynthesizer.ipc(observation.pmcs))
        latencies.append(observation.p99_ms)
    return np.array(states), np.array(ipcs).reshape(-1, 1), np.array(latencies)


def _train_regressor(
    features: np.ndarray,
    targets: np.ndarray,
    config: Fig01Config,
    rng: np.random.Generator,
) -> MLP:
    net = MLP([features.shape[1], *config.hidden, 1], rng)
    optimizer = Adam(net.parameters(), learning_rate=config.learning_rate)
    y = targets.reshape(-1, 1)
    batch = min(256, features.shape[0])
    for _ in range(config.epochs):
        idx = rng.integers(0, features.shape[0], size=batch)
        pred = net.forward(features[idx], training=True)
        _, grad = mse_loss(pred, y[idx])
        net.backward(grad)
        optimizer.step()
        optimizer.zero_grad()
    return net


def _stats(
    errors: np.ndarray, latency: np.ndarray, config: Fig01Config, band_ms: float
) -> PredictorStats:
    edges = np.quantile(latency, np.linspace(0, 1, config.latency_buckets + 1))
    medians, iqrs = [], []
    for low, high in zip(edges, edges[1:]):
        mask = (latency >= low) & (latency <= high)
        if mask.sum() > 2:
            bucket = errors[mask]
            medians.append(float(np.median(bucket)))
            iqrs.append(float(np.percentile(bucket, 75) - np.percentile(bucket, 25)))
    return PredictorStats(
        mean_error_ms=float(errors.mean()),
        std_error_ms=float(errors.std()),
        zero_error_density=float(np.mean(np.abs(errors) < band_ms)),
        bucket_medians=medians,
        bucket_iqrs=iqrs,
    )


def run(config: Fig01Config = Fig01Config()) -> Fig01Result:
    """Reproduce Figure 1 for every configured service."""
    per_service: Dict[str, Dict[str, PredictorStats]] = {}
    gains: Dict[str, float] = {}
    for service in config.services:
        rng = np.random.default_rng(config.seed)
        states, ipc, latency = _collect_samples(service, config, rng)
        split = int(config.train_fraction * len(latency))
        # Normalise latency for stable training; errors reported in ms.
        scale = latency[:split].std() or 1.0
        offset = latency[:split].mean()
        y = (latency - offset) / scale

        band_ms = config.zero_error_band_fraction * float(np.median(latency))
        stats: Dict[str, PredictorStats] = {}
        for kind, features in (("pmc", states), ("ipc", ipc)):
            net = _train_regressor(features[:split], y[:split], config, rng)
            pred = net.forward(features[split:], training=False).reshape(-1)
            errors = (pred * scale + offset) - latency[split:]
            stats[kind] = _stats(errors, latency[split:], config, band_ms)
        per_service[service] = stats
        ipc_density = max(stats["ipc"].zero_error_density, 1e-6)
        gains[service] = stats["pmc"].zero_error_density / ipc_density
    return Fig01Result(per_service=per_service, zero_density_gain=gains)
