"""Figure 13: Twig-C vs PARTIES vs Static across all service pairs.

The paper colocates every pair of the four Tailbench services (C(4,2) = 6
mixes) at low/mid/high (20/50/80 %) of the *colocated* maximum load —
which it finds with an offline 10 %-step sweep per pair — and reports QoS
guarantee plus energy normalised to static mapping. Headline: Twig-C
reduces energy over PARTIES by 28 % on average at ~99 % QoS guarantees.

The colocated-maximum sweep is reproduced in :func:`colocated_max_sweep`;
by default each pair's per-service load fractions are then
``level x colocated_max``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.experiments.common import (
    HARNESS,
    HarnessConfig,
    ManagerSummary,
    make_environment,
    run_colocated_comparison,
)
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec


@dataclass(frozen=True)
class Fig13Config:
    services: Tuple[str, ...] = ("masstree", "xapian", "moses", "img-dnn")
    levels: Tuple[float, ...] = (0.2, 0.5, 0.8)
    sweep_step: float = 0.1            # the paper's 10% increments
    sweep_seconds: int = 10
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    pairs_limit: int = 0               # 0 = all C(4,2) pairs


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig13Config(
        levels=(0.2, 0.5), sweep_seconds=6, harness=HARNESS["quick"], pairs_limit=2
    ),
    "default": Fig13Config(),
    "paper": Fig13Config(harness=HARNESS["paper"]),
}


def colocated_max_sweep(
    pair: Tuple[str, str],
    step: float = 0.1,
    seconds: int = 10,
    seed: int = 13,
) -> float:
    """Maximum equal load fraction both services sustain together.

    Both services share the whole socket at max DVFS (static mapping); the
    sweep raises both loads in ``step`` increments until either service's
    p99 exceeds its target, and returns the last sustainable fraction.
    """
    spec = ServerSpec()
    fraction = step
    best = step
    while fraction <= 1.0:
        env = make_environment(list(pair), [fraction, fraction], seed, spec)
        cores = tuple(env.socket_core_ids)
        assignment = {
            name: CoreAssignment(cores=cores, freq_index=len(spec.dvfs) - 1)
            for name in pair
        }
        ok = True
        results = [env.step(assignment) for _ in range(seconds)]
        for name in pair:
            target = env.qos_target_of(name)
            p99 = np.median([r.observations[name].p99_ms for r in results])
            if p99 > target:
                ok = False
        if not ok:
            break
        best = fraction
        fraction = round(fraction + step, 4)
    return best


@dataclass
class Fig13Result:
    colocated_max: Dict[Tuple[str, str], float]
    cells: Dict[Tuple[Tuple[str, str], float], Dict[str, ManagerSummary]]

    def average_normalized_energy(self, manager: str) -> float:
        values = [
            cell[manager].normalized_energy
            for cell in self.cells.values()
            if manager in cell
        ]
        return float(np.mean(values))

    def energy_saving_vs_parties(self) -> float:
        savings = []
        for cell in self.cells.values():
            if "twig-c" in cell and "parties" in cell:
                savings.append(
                    1.0 - cell["twig-c"].normalized_energy / cell["parties"].normalized_energy
                )
        return float(np.mean(savings) * 100.0)

    def format_table(self) -> str:
        lines = [
            "Figure 13 — Twig-C vs PARTIES vs Static (QoS% / normalised energy)",
            f"{'pair':22s} {'load':>4s}  {'static':>12s} {'parties':>12s} {'twig-c':>12s}",
        ]
        for (pair, level), cell in sorted(self.cells.items()):
            row = f"{pair[0]}+{pair[1]:<12s} {int(level * 100):3d}%  "
            for manager in ("static", "parties", "twig-c"):
                if manager in cell:
                    s = cell[manager]
                    qos = np.mean(list(s.qos_guarantee.values()))
                    row += f"{qos:5.1f}/{s.normalized_energy:4.2f}  "
            lines.append(row)
        lines.append(
            f"avg energy saving of twig-c vs parties: "
            f"{self.energy_saving_vs_parties():.1f}% (paper: 28%)"
        )
        return "\n".join(lines)


def run(config: Fig13Config = Fig13Config()) -> Fig13Result:
    pairs = list(itertools.combinations(config.services, 2))
    if config.pairs_limit:
        pairs = pairs[: config.pairs_limit]
    colocated_max: Dict[Tuple[str, str], float] = {}
    cells: Dict[Tuple[Tuple[str, str], float], Dict[str, ManagerSummary]] = {}
    for pair in pairs:
        maximum = colocated_max_sweep(
            pair, step=config.sweep_step, seconds=config.sweep_seconds
        )
        colocated_max[pair] = maximum
        for level in config.levels:
            fraction = round(level * maximum, 4)
            cells[(pair, level)] = run_colocated_comparison(
                pair, (fraction, fraction), config.harness
            )
    return Fig13Result(colocated_max=colocated_max, cells=cells)
