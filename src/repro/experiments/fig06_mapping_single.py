"""Figure 6: core-mapping decisions and QoS-tardiness histograms.

The paper shows, for Masstree at 50 % of maximum load, the distribution of
core allocations over a 300 s window and a histogram of QoS tardiness for
Heracles (top), Hipster (middle) and Twig-S (bottom). The observations:
Heracles oscillates between 12-13 cores at 2 GHz; Hipster mostly uses ~6
cores at 2 GHz but its QoS guarantee drops to ~81 %; Twig-S meets the
target with stable, lean allocations and 2.3x fewer migrations than
Hipster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.experiments.common import HARNESS, HarnessConfig, ManagerSummary, run_single_service_comparison
from repro.server.spec import ServerSpec


@dataclass(frozen=True)
class Fig06Config:
    service: str = "masstree"
    load_fraction: float = 0.5
    tardiness_bins: int = 10
    harness: HarnessConfig = field(default_factory=HarnessConfig)


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {scale: Fig06Config(harness=harness) for scale, harness in HARNESS.items()}


@dataclass
class Fig06Result:
    summaries: Dict[str, ManagerSummary]
    core_histograms: Dict[str, np.ndarray]       # fraction of time per core count
    tardiness_histograms: Dict[str, np.ndarray]
    tardiness_edges: np.ndarray
    migrations: Dict[str, int]

    def format_table(self) -> str:
        lines = ["Figure 6 — core mapping and tardiness, masstree @ 50% load"]
        for manager, summary in self.summaries.items():
            hist = self.core_histograms[manager]
            top = np.argsort(hist)[::-1][:3]
            modes = ", ".join(f"{c} cores {hist[c] * 100:.0f}%" for c in top if hist[c] > 0)
            qos = np.mean(list(summary.qos_guarantee.values()))
            lines.append(
                f"{manager:9s} qos {qos:5.1f}%  power {summary.mean_power_w:5.1f} W  "
                f"migrations {self.migrations.get(manager, 0):5d}  modes: {modes}"
            )
        return "\n".join(lines)


def run(config: Fig06Config = Fig06Config()) -> Fig06Result:
    spec = ServerSpec()
    summaries = run_single_service_comparison(
        config.service,
        config.load_fraction,
        config.harness,
        managers=("static", "heracles", "hipster", "twig"),
        keep_traces=True,
    )
    summaries.pop("static", None)
    window = config.harness.window
    core_histograms: Dict[str, np.ndarray] = {}
    tardiness_histograms: Dict[str, np.ndarray] = {}
    migrations: Dict[str, int] = {}
    edges = np.linspace(0.0, 2.0, config.tardiness_bins + 1)
    for manager, summary in summaries.items():
        trace = summary.trace
        assert trace is not None
        core_histograms[manager] = trace.core_histogram(
            config.service, spec.cores_per_socket, window
        )
        ratios = np.clip(trace.tardiness(config.service, window), 0.0, 2.0 - 1e-9)
        tardiness_histograms[manager], _ = np.histogram(ratios, bins=edges)
        migrations[manager] = trace.migrations.get(config.service, 0)
    return Fig06Result(
        summaries=summaries,
        core_histograms=core_histograms,
        tardiness_histograms=tardiness_histograms,
        tardiness_edges=edges,
        migrations=migrations,
    )
