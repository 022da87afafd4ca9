"""Figure 4: percentage absolute average error of the Equation-2 model.

The paper profiles Xapian and Masstree at 20/50/80 % load, alternate core
counts and alternate DVFS states (unused cores hot-plugged off), fits
Equation 2 by random grid search + 5-fold CV, and reports a mean PAAE of
5.46 % (7 % max) plus an overall MSE of 2.91 mW and R^2 of 0.92.

This module runs the same profiling/fit on the simulated server and
reports PAAE per (service, load-level) pair plus the fit quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.power_model import ServicePowerModel
from repro.experiments.profiling import collect_power_samples
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile


@dataclass(frozen=True)
class Fig04Config:
    services: Tuple[str, ...] = ("xapian", "masstree")
    loads: Tuple[float, ...] = (0.2, 0.5, 0.8)
    n_candidates: int = 3000
    seconds_per_point: int = 5
    seed: int = 4


#: The config of each scale (:func:`repro.experiments.registry.config_for`).
CONFIGS = {
    "quick": Fig04Config(seconds_per_point=3, n_candidates=1_500),
    "default": Fig04Config(seconds_per_point=8),
    "paper": Fig04Config(seconds_per_point=20, n_candidates=8_000),
}


@dataclass
class Fig04Result:
    paae_by_service_load: Dict[str, Dict[float, float]]
    overall_paae: Dict[str, float]
    r2: Dict[str, float]
    coefficients: Dict[str, Tuple[float, float, float]]

    def format_table(self) -> str:
        lines = [
            "Figure 4 — Equation-2 power model PAAE",
            f"{'service':10s} " + " ".join(f"{'%d%%' % (l * 100):>7s}" for l in sorted(next(iter(self.paae_by_service_load.values())))) + f" {'overall':>8s} {'R^2':>6s}",
        ]
        for service, by_load in self.paae_by_service_load.items():
            cells = " ".join(f"{by_load[l]:6.2f}%" for l in sorted(by_load))
            lines.append(
                f"{service:10s} {cells} {self.overall_paae[service]:7.2f}% "
                f"{self.r2[service]:6.3f}"
            )
        mean = float(np.mean(list(self.overall_paae.values())))
        lines.append(f"mean PAAE across services: {mean:.2f}% (paper: 5.46%, 7% max)")
        return "\n".join(lines)


def run(config: Fig04Config = Fig04Config()) -> Fig04Result:
    spec = ServerSpec()
    paae_by: Dict[str, Dict[float, float]] = {}
    overall: Dict[str, float] = {}
    r2: Dict[str, float] = {}
    coefficients: Dict[str, Tuple[float, float, float]] = {}
    for service in config.services:
        rng = np.random.default_rng(config.seed)
        profile = get_profile(service)
        samples = collect_power_samples(
            profile,
            spec,
            rng,
            loads=config.loads,
            seconds_per_point=config.seconds_per_point,
        )
        model = ServicePowerModel().fit_random_search(
            samples, rng, n_candidates=config.n_candidates
        )
        paae_by[service] = {}
        for load in config.loads:
            level = [s for s in samples if abs(s.load_pct - load * 100.0) < 1e-6]
            if level:
                paae_by[service][load] = model.paae_pct(level)
        overall[service] = model.paae_pct(samples)
        r2[service] = float(model.r2)
        coefficients[service] = (model.kappa, model.sigma, model.omega)
    return Fig04Result(
        paae_by_service_load=paae_by,
        overall_paae=overall,
        r2=r2,
        coefficients=coefficients,
    )
