"""Figure 12: core-mapping distributions, PARTIES vs Twig-C.

The paper colocates Masstree at 20 % and Moses at 80 % of maximum load and
shows each manager's core-allocation distribution over 600 s. PARTIES
keeps making small adjustments (wide distribution); Twig-C holds a stable,
leaner mapping, which is where its energy savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.experiments.common import HARNESS, HarnessConfig, ManagerSummary, run_colocated_comparison
from repro.server.spec import ServerSpec


@dataclass(frozen=True)
class Fig12Config:
    services: tuple = ("masstree", "moses")
    load_fractions: tuple = (0.2, 0.6)   # paper: 20% and 80% of *colocated* max
    harness: HarnessConfig = field(default_factory=HarnessConfig)


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {scale: Fig12Config(harness=harness) for scale, harness in HARNESS.items()}


@dataclass
class Fig12Result:
    summaries: Dict[str, ManagerSummary]
    core_histograms: Dict[str, Dict[str, np.ndarray]]  # manager -> service -> hist
    allocation_spread: Dict[str, Dict[str, float]]     # std of core counts

    def format_table(self) -> str:
        lines = ["Figure 12 — core mapping distribution (masstree@20% + moses@60%)"]
        for manager, by_service in self.core_histograms.items():
            for service, hist in by_service.items():
                mode = int(np.argmax(hist))
                spread = self.allocation_spread[manager][service]
                lines.append(
                    f"{manager:8s} {service:9s} mode {mode:2d} cores "
                    f"({hist[mode] * 100:4.0f}% of time), std {spread:4.2f} cores"
                )
        for manager, summary in self.summaries.items():
            qos = {k: round(v, 1) for k, v in summary.qos_guarantee.items()}
            lines.append(
                f"{manager:8s} energy {summary.normalized_energy:4.2f}x  qos {qos}"
            )
        return "\n".join(lines)


def run(config: Fig12Config = Fig12Config()) -> Fig12Result:
    spec = ServerSpec()
    summaries = run_colocated_comparison(
        tuple(config.services),
        tuple(config.load_fractions),
        config.harness,
        managers=("static", "parties", "twig"),
        keep_traces=True,
    )
    window = config.harness.parties_window
    histograms: Dict[str, Dict[str, np.ndarray]] = {}
    spreads: Dict[str, Dict[str, float]] = {}
    for manager in ("parties", "twig-c"):
        summary = summaries[manager]
        trace = summary.trace
        assert trace is not None
        histograms[manager] = {}
        spreads[manager] = {}
        for service in config.services:
            histograms[manager][service] = trace.core_histogram(
                service, spec.cores_per_socket, window
            )
            spreads[manager][service] = float(
                np.std(trace.services[service].cores[-window:])
            )
    return Fig12Result(
        summaries=summaries, core_histograms=histograms, allocation_spread=spreads
    )
