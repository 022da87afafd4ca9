"""Figure 5: Twig-S vs Hipster, Heracles and Static at fixed loads.

The paper runs each of the four Tailbench services at 20/50/80 % of its
maximum load under each manager, reporting the QoS guarantee (top) and the
energy usage normalised to static mapping (bottom). Headline: similar QoS
guarantees, with Twig-S using on average 11.8 % less energy than Hipster
and 38 % less than Heracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.experiments.common import HARNESS, HarnessConfig, ManagerSummary, run_single_service_comparison


@dataclass(frozen=True)
class Fig05Config:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    load_fractions: Tuple[float, ...] = (0.2, 0.5, 0.8)
    harness: HarnessConfig = field(default_factory=HarnessConfig)


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig05Config(
        services=("masstree", "moses"), load_fractions=(0.2, 0.5), harness=HARNESS["quick"]
    ),
    "default": Fig05Config(),
    "paper": Fig05Config(harness=HARNESS["paper"]),
}


@dataclass
class Fig05Result:
    cells: Dict[Tuple[str, float], Dict[str, ManagerSummary]]

    def average_normalized_energy(self, manager: str) -> float:
        values = [
            summary[manager].normalized_energy
            for summary in self.cells.values()
            if manager in summary
        ]
        return float(np.mean(values))

    def average_qos(self, manager: str) -> float:
        values = []
        for summary in self.cells.values():
            if manager in summary:
                values.extend(summary[manager].qos_guarantee.values())
        return float(np.mean(values))

    def energy_saving_vs(self, manager: str, other: str) -> float:
        """Average per-cell energy saving of `manager` relative to `other`, %."""
        savings = []
        for summary in self.cells.values():
            if manager in summary and other in summary:
                savings.append(
                    1.0
                    - summary[manager].normalized_energy
                    / summary[other].normalized_energy
                )
        return float(np.mean(savings) * 100.0)

    def format_table(self) -> str:
        lines = [
            "Figure 5 — QoS guarantee (%) / normalised energy, fixed loads",
            f"{'service':9s} {'load':>4s}  " + "  ".join(
                f"{m:>14s}" for m in ("static", "heracles", "hipster", "twig-s")
            ),
        ]
        for (service, load), summary in sorted(self.cells.items()):
            cells = []
            for manager in ("static", "heracles", "hipster", "twig-s"):
                if manager in summary:
                    s = summary[manager]
                    qos = np.mean(list(s.qos_guarantee.values()))
                    cells.append(f"{qos:5.1f}/{s.normalized_energy:4.2f}    ")
                else:
                    cells.append(" " * 14)
            lines.append(f"{service:9s} {int(load * 100):3d}%  " + "  ".join(cells))
        lines.append(
            f"avg energy saving vs hipster: {self.energy_saving_vs('twig-s', 'hipster'):.1f}% "
            f"(paper: 11.8%); vs heracles: {self.energy_saving_vs('twig-s', 'heracles'):.1f}% "
            f"(paper: 38%)"
        )
        return "\n".join(lines)


def run(config: Fig05Config = Fig05Config()) -> Fig05Result:
    cells: Dict[Tuple[str, float], Dict[str, ManagerSummary]] = {}
    for service in config.services:
        for load in config.load_fractions:
            cells[(service, load)] = run_single_service_comparison(
                service, load, config.harness
            )
    return Fig05Result(cells=cells)
