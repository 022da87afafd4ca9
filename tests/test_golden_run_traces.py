"""Golden run-trace hashes for the fleet layer.

Each entry of ``tests/data/golden_run_traces.json`` names a small fleet
run on the vector engine (manager, nodes, ticks, seed, traffic,
balancer) and the sha256 over every series its :class:`RunTrace` list
records. The test re-runs each config and compares: a refactor of the
engine, the cluster layer, the rule fleets or ``FleetTwig`` that keeps
these hashes kept the simulated behaviour bit for bit.

A change that moves a trajectory on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_run_traces.py --write`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.cluster.environment import ClusterEnvironment
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.hier.baselines import make_rule_fleet
from repro.services.profiles import get_profile

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_run_traces.json"

SERVICES = ["masstree", "xapian", "moses", "img-dnn"]

#: The runs the golden file pins: two rule fleets and a learning fleet.
CONFIGS: List[Dict[str, Any]] = [
    {"manager": manager, "services": SERVICES, "nodes": 8, "ticks": 20,
     "seed": 11, "traffic": "diurnal", "balancer": "least_loaded"}
    for manager in ("static", "parties", "twig")
]


def config_key(config: Dict[str, Any]) -> str:
    """Canonical JSON of a config: the key of its hash in the golden map."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def run_traces(config: Dict[str, Any]):
    """Run one golden config on the vector engine; one RunTrace per node."""
    services, nodes, seed = config["services"], config["nodes"], config["seed"]
    venv = ClusterEnvironment.from_services(
        services, num_nodes=nodes, seed=seed,
        traffic=config["traffic"], balancer=config["balancer"],
    )
    if config["manager"] == "twig":
        manager = FleetTwig(
            [get_profile(s) for s in services],
            TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16),
            np.random.default_rng(seed + 1),
            num_envs=nodes,
        )
        manager.index_tag = "node"
    else:
        manager = make_rule_fleet(config["manager"], services, nodes, seed)
    return run_fleet(manager, venv, config["ticks"])


def trace_sha256(traces) -> str:
    """sha256 over every series of every trace, in node and service order."""
    digest = hashlib.sha256()
    for trace in traces:
        for name, series in trace.services.items():
            digest.update(name.encode())
            for values in (series.p99_ms, series.arrival_rps, series.cores,
                           series.frequency_ghz):
                digest.update(np.asarray(values, dtype=np.float64).tobytes())
        for values in (trace.power_w, trace.true_power_w, trace.membw_utilization):
            digest.update(np.asarray(values, dtype=np.float64).tobytes())
        migrations = [trace.migrations.get(name, 0) for name in trace.services]
        digest.update(np.asarray(migrations, dtype=np.int64).tobytes())
    return digest.hexdigest()


def compute_golden() -> Dict[str, str]:
    return {config_key(c): trace_sha256(run_traces(c)) for c in CONFIGS}


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(config_key(c) for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=[c["manager"] for c in CONFIGS])
def test_run_trace_hash_unchanged(config):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace_sha256(run_traces(config)) == golden[config_key(config)]


if __name__ == "__main__":
    hashes = compute_golden()
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(json.dumps(hashes, indent=2, sort_keys=True))
