"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one paper artifact (table or figure) and prints
the same rows/series the paper reports, so `pytest benchmarks/
--benchmark-only -s` doubles as the experiment runner. Because a single
run of an experiment can take seconds to minutes, benchmarks execute
exactly one round via ``benchmark.pedantic``.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable.
It names the same configs as ``repro run --scale``: each experiment's
config at that scale, :func:`repro.experiments.registry.config_for`, and
the harness budgets :data:`repro.experiments.common.HARNESS`:

- ``quick``  — smoke-scale budgets (CI-friendly, minutes total);
- ``default``— scaled-down but meaningful learning schedules (the
  reported numbers in EXPERIMENTS.md use this);
- ``paper``  — the paper's own 10 000-25 000-step schedules (hours).
"""

from __future__ import annotations

import os

from repro.experiments.registry import config_for, run_experiment

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def run_artifact(benchmark, experiment_id: str):
    """Run a registered experiment once at ``SCALE``, print its table and
    return its result."""
    config = config_for(experiment_id, SCALE)
    result = run_once(benchmark, lambda: run_experiment(experiment_id, config))
    print()
    print(result.format_table())
    return result
