"""Registry mapping paper artifacts to experiment modules.

Keeps the per-experiment index of DESIGN.md executable: each entry names
the paper table/figure, the module that reproduces it, and a one-line
description. ``run_experiment`` dispatches by id with an optional config.

Each experiment module with step budgets defines its config at each scale
once, in a ``CONFIGS`` mapping from ``quick``/``default``/``paper``;
:func:`config_for` reads it. ``repro run --scale``, the benchmarks'
``REPRO_BENCH_SCALE`` and the golden hashes all take their configs from
here, and the benchmarks run through :func:`run_experiment`, so every
artifact has one entry point and one config per scale. No experiment
module is imported until an entry is run or its config is read.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentEntry:
    experiment_id: str
    module: str
    description: str


_ENTRIES = [
    ExperimentEntry("fig01", "repro.experiments.fig01_pmc_prediction",
                    "Tail-latency prediction error: multiple PMCs vs IPC"),
    ExperimentEntry("tab01", "repro.experiments.tab01_pmc_selection",
                    "PMC selection and importance ranking (Table I)"),
    ExperimentEntry("tab02", "repro.experiments.tab02_capacity",
                    "Per-service maximum load and QoS targets (Table II)"),
    ExperimentEntry("tab03", "repro.experiments.tab03_overhead",
                    "Twig runtime overhead (Table III)"),
    ExperimentEntry("fig04", "repro.experiments.fig04_power_paae",
                    "Equation-2 power model PAAE (Figure 4)"),
    ExperimentEntry("fig05", "repro.experiments.fig05_twig_s_fixed",
                    "Twig-S vs Hipster/Heracles/Static, fixed loads (Figure 5)"),
    ExperimentEntry("fig06", "repro.experiments.fig06_mapping_single",
                    "Core mapping + tardiness histograms, masstree@50% (Figure 6)"),
    ExperimentEntry("fig07", "repro.experiments.fig07_learning_curve",
                    "QoS guarantee over learning time (Figure 7)"),
    ExperimentEntry("mem", "repro.experiments.mem_complexity",
                    "Memory complexity, Hipster table vs Twig BDQ (Section V-B1)"),
    ExperimentEntry("fig08", "repro.experiments.fig08_transfer_s",
                    "Twig-S transfer learning (Figure 8)"),
    ExperimentEntry("fig09", "repro.experiments.fig09_transfer_c",
                    "Twig-C transfer learning (Figure 9)"),
    ExperimentEntry("fig10", "repro.experiments.fig10_varying_s",
                    "Varying load, single service img-dnn (Figure 10)"),
    ExperimentEntry("fig11", "repro.experiments.fig11_varying_c",
                    "Varying load, colocated moses+masstree (Figure 11)"),
    ExperimentEntry("fig12", "repro.experiments.fig12_mapping_coloc",
                    "Core mapping distributions, PARTIES vs Twig-C (Figure 12)"),
    ExperimentEntry("fig13", "repro.experiments.fig13_twig_c_fixed",
                    "Twig-C vs PARTIES vs Static, all pairs (Figure 13)"),
    ExperimentEntry("fleet", "repro.experiments.fleet",
                    "Vectorized N-environment fleet rollout (lock-step engine)"),
    ExperimentEntry("cluster", "repro.experiments.cluster",
                    "Load-balanced multi-node cluster with trace-driven traffic"),
    ExperimentEntry("hier", "repro.experiments.hier",
                    "Hierarchical fleet control: budget allocator over Twig leaves"),
]

REGISTRY: Dict[str, ExperimentEntry] = {e.experiment_id: e for e in _ENTRIES}

#: The step-budget scales, smallest first: ``quick`` (smoke budgets, the
#: CLI's default), ``default`` (the numbers EXPERIMENTS.md reports) and
#: ``paper`` (the paper's own schedules).
SCALES = ("quick", "default", "paper")


def get_entry(experiment_id: str) -> ExperimentEntry:
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(REGISTRY)}"
        ) from None


def config_for(experiment_id: str, scale: str) -> Optional[Any]:
    """The config ``experiment_id`` runs at ``scale``; None for an
    experiment without step budgets (``tab03``, ``mem``), which runs its
    module default."""
    entry = get_entry(experiment_id)
    if scale not in SCALES:
        raise ConfigurationError(f"unknown scale {scale!r}; available: {list(SCALES)}")
    configs = getattr(importlib.import_module(entry.module), "CONFIGS", None)
    return None if configs is None else configs[scale]


def run_experiment(experiment_id: str, config: Optional[Any] = None) -> Any:
    """Run one registered experiment; returns its Result object."""
    entry = get_entry(experiment_id)
    module = importlib.import_module(entry.module)
    if config is None:
        return module.run()
    return module.run(config)
