"""Golden run-trace hashes for the fleet layer and the paper loop.

``tests/data/golden_run_traces.json`` maps each run named here (its
config, as canonical JSON) to a sha256 over every series its
:class:`RunTrace` list records. The test re-runs each config and
compares: a refactor that keeps these hashes kept the simulated
behaviour bit for bit.

- Fleet runs: rule fleets and learning ``FleetTwig`` fleets on the
  vector engine, a learning config small enough to sync its target
  network and wrap its replay stripes within 20 ticks, and the event
  stream of a traced learning fleet with faults on one node
  (``fleet-events``: per-node ``run_start``/``run_end`` and node-tagged
  ``interval``/``qos_violation``/``fault``/``degraded`` events).
- Paper-loop runs: one ``Twig`` on one ``ColocationEnvironment`` under
  ``run_manager`` — the bench ``twig_c`` recipe, Twig-C with every fault
  kind, Twig-C with the LLC branch, a mid-run service swap with
  ``transfer_to``, Twig-S with a fitted Equation-2 model, Twig-S with
  uniform replay, and the event stream of a short traced run (``events``
  hashes the JSON lines with ``run_end.wall_time_s`` dropped).
- Experiment runs: ``repro.experiments.cluster.run`` at the CLI's quick
  scale, ``repro.experiments.hier.run`` at quick scale, one hash per
  variant (hier, flat, static, PARTIES), and a longer ``hier`` run with
  a two-tick budget period, long enough for the budget allocator's own
  agent to train (at quick scale it stores 15 transitions, below its
  ``min_buffer_size`` of 16, and never does).

A change that moves a trajectory on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_run_traces.py --write`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.cli import _config_for
from repro.cluster.environment import ClusterEnvironment
from repro.core import Twig
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.experiments import cluster, hier
from repro.experiments.common import HarnessConfig, build_twig, make_environment
from repro.experiments.profiling import fit_service_power_model
from repro.experiments.runner import run_manager
from repro.hier.baselines import make_rule_fleet
from repro.obs.context import ObsContext
from repro.obs.sink import MemorySink
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from repro.sim.faults import Fault, FaultInjector

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_run_traces.json"

SERVICES = ["masstree", "xapian", "moses", "img-dnn"]

_FLEET = {"services": SERVICES, "nodes": 8, "ticks": 20, "seed": 11,
          "traffic": "diurnal", "balancer": "least_loaded"}

#: Fleet runs, with their test ids: two rule fleets, a learning fleet,
#: and a learning fleet that crosses a target-network sync (every 5
#: steps) and a replay-stripe wrap (stripes of 8 transitions).
FLEET_CONFIGS: Dict[str, Dict[str, Any]] = {
    "static": {"manager": "static", **_FLEET},
    "parties": {"manager": "parties", **_FLEET},
    "twig": {"manager": "twig", **_FLEET},
    "twig-sync-wrap": {
        "manager": "twig", **_FLEET,
        "agent": {"batch_size": 8, "buffer_capacity": 64, "min_buffer_size": 16,
                  "target_update_every": 5},
    },
    # The traced event stream of the learning fleet, with faults on node 2.
    "fleet-events": {"manager": "twig", **_FLEET, "events": True, "fault_node": 2},
}

#: Fault windows of the ``fleet-events`` node: a PMC dropout (the node's
#: ``degraded`` ticks) and a latency spike (the p99 and tardiness its
#: ``interval`` and ``qos_violation`` events carry).
FLEET_FAULTS = (
    Fault("pmc_dropout", "masstree", start=5, duration=3),
    Fault("latency_spike", "xapian", start=11, duration=4, magnitude=5.0),
)

#: Paper-loop runs, with their test ids.
PAPER_CONFIGS: Dict[str, Dict[str, Any]] = {
    # bench/episode.py:run_twig_c: HarnessConfig.quick at seed 7.
    "twig-c-bench": {"loop": "paper", "case": "bench", "services": ["masstree", "xapian"],
                     "loads": [0.3, 0.3], "seed": 7, "steps": 410},
    "twig-c-faults": {"loop": "paper", "case": "faults", "services": ["masstree", "moses"],
                      "loads": [0.4, 0.4], "seed": 11, "steps": 200},
    "twig-c-llc": {"loop": "paper", "case": "llc", "services": ["masstree", "xapian"],
                   "loads": [0.4, 0.4], "seed": 5, "steps": 200},
    "twig-c-transfer": {"loop": "paper", "case": "transfer",
                        "services": ["masstree", "moses"], "swap": "img-dnn",
                        "swap_at": 120, "loads": [0.4, 0.4], "seed": 9, "steps": 240},
    "twig-s-fitted": {"loop": "paper", "case": "fitted", "services": ["masstree"],
                      "loads": [0.4], "seed": 7, "steps": 250},
    "twig-s-uniform": {"loop": "paper", "case": "uniform", "services": ["masstree"],
                       "loads": [0.5], "seed": 7, "steps": 200},
    "twig-s-events": {"loop": "paper", "case": "events", "services": ["masstree"],
                      "loads": [0.4], "seed": 3, "steps": 80},
}

#: The CLI's quick scale for ``repro run cluster`` and ``repro run hier``.
_QUICK = {"num_nodes": 8, "steps": 80, "epsilon_mid_steps": 30,
          "epsilon_final_steps": 60, "window": 40}
_HIER = {"loop": "experiment", "experiment": "hier", **_QUICK, "budget_period": 5}

#: Experiment runs, with their test ids: the cluster experiment, and
#: each variant of one hier experiment run.
EXPERIMENT_CONFIGS: Dict[str, Dict[str, Any]] = {
    "cluster": {"loop": "experiment", "experiment": "cluster", **_QUICK},
    "hier-hier": {**_HIER, "variant": "hier"},
    "hier-flat": {**_HIER, "variant": "flat"},
    "hier-static": {**_HIER, "variant": "static"},
    "hier-parties": {**_HIER, "variant": "parties"},
    # 160 ticks at period 2: the allocator decides 80 times and takes 64
    # train steps. No comparison fleets, so only the hier variant runs.
    "hier-allocator-trains": {**_HIER, "budget_period": 2, "steps": 160,
                              "baselines": [], "variant": "hier"},
}

#: Twig-C fault windows: every kind, each on its own interval window.
FAULTS = (
    Fault("pmc_dropout", "masstree", start=70, duration=3),
    Fault("pmc_nan", "moses", start=100, duration=2, magnitude=3),
    Fault("latency_spike", "masstree", start=130, duration=4, magnitude=5.0),
    Fault("service_crash", "moses", start=160, duration=3),
)


def config_key(config: Dict[str, Any]) -> str:
    """Canonical JSON of a config: the key of its hash in the golden map."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def event_lines(sink: MemorySink):
    """A sink's events as JSON lines, ``run_end.wall_time_s`` dropped."""
    lines = []
    for event in sink.events:
        if event["ev"] == "run_end":
            event = {k: v for k, v in event.items() if k != "wall_time_s"}
        lines.append(json.dumps(event, separators=(",", ":")))
    return lines


def run_traces(config: Dict[str, Any]):
    """Run one golden fleet config: one RunTrace per node, or the event lines."""
    services, nodes, seed = config["services"], config["nodes"], config["seed"]
    venv = ClusterEnvironment.from_services(
        services, num_nodes=nodes, seed=seed, traffic=config["traffic"],
        balancer=config["balancer"],
    )
    if "fault_node" in config:
        venv.envs[config["fault_node"]].faults = FaultInjector(list(FLEET_FAULTS))
    if config["manager"] == "twig":
        twig_config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16)
        manager = FleetTwig(
            [get_profile(s) for s in services],
            twig_config.scaled(**config.get("agent", {})),
            np.random.default_rng(seed + 1),
            num_envs=nodes,
        )
        manager.index_tag = "node"
    else:
        manager = make_rule_fleet(config["manager"], services, nodes, seed)
    if config.get("events"):
        sink = MemorySink(validate=True)
        run_fleet(manager, venv, config["ticks"], obs=ObsContext(sink=sink))
        return event_lines(sink)
    return run_fleet(manager, venv, config["ticks"])


def _paper_env(config: Dict[str, Any], faults=None) -> ColocationEnvironment:
    services, seed = config["services"], config["seed"]
    generators = {
        name: ConstantLoad(get_profile(name).max_load_rps, load,
                           rng=np.random.default_rng(seed + 101 + i))
        for i, (name, load) in enumerate(zip(services, config["loads"]))
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=ServerSpec()),
        [get_profile(name) for name in services],
        generators,
        np.random.default_rng(seed),
        faults=faults,
    )


def _paper_twig(config: Dict[str, Any], **overrides) -> Twig:
    twig_config = TwigConfig.fast(epsilon_mid_steps=60, epsilon_final_steps=150)
    return Twig(
        [get_profile(name) for name in config["services"]],
        twig_config.scaled(**overrides),
        np.random.default_rng(config["seed"] + 42),
        spec=ServerSpec(),
    )


def run_paper(config: Dict[str, Any]):
    """Run one golden paper-loop config: ``[trace]``, or the event lines."""
    case, steps, seed = config["case"], config["steps"], config["seed"]
    if case == "bench":
        harness = replace(HarnessConfig.quick(), seed=seed)
        twig = build_twig([get_profile(s) for s in config["services"]], harness,
                          seed_offset=seed)
        env = make_environment(config["services"], config["loads"], harness.seed)
        return [run_manager(twig, env, steps)]
    if case == "faults":
        env = _paper_env(config, faults=FaultInjector(list(FAULTS)))
        return [run_manager(_paper_twig(config), env, steps)]
    if case == "llc":
        return [run_manager(_paper_twig(config, manage_llc=True), _paper_env(config), steps)]
    if case == "uniform":
        # The uniform-replay ablation (benchmarks/test_ablations.py).
        twig = _paper_twig(config, use_prioritized_replay=False)
        return [run_manager(twig, _paper_env(config), steps)]
    if case == "transfer":
        twig, env = _paper_twig(config), _paper_env(config)
        old, new = config["services"][1], get_profile(config["swap"])

        def swap(t, result):
            # The Figure-9 swap, mid-run: new service, transfer, restart
            # from the full socket, mildly exploratory again.
            if t != config["swap_at"]:
                return None
            env.swap_service(old, new, ConstantLoad(
                new.max_load_rps, config["loads"][1], rng=np.random.default_rng(seed + 5)
            ))
            twig.transfer_to(old, new)
            twig.agent.step_count = twig.config.epsilon_mid_steps
            return twig.initial_assignments()

        return [run_manager(twig, env, steps, on_step=swap)]
    if case == "fitted":
        # tests/test_integration.py's fitted Twig-S.
        spec = ServerSpec()
        profile = get_profile("masstree")
        model = fit_service_power_model(
            profile, spec, np.random.default_rng(1234),
            loads=(0.3, 0.6), core_counts=(6, 12, 18), dvfs_indices=(0, 4, 8),
            seconds_per_point=2, n_candidates=400,
        )
        twig = Twig([profile], TwigConfig.fast(epsilon_mid_steps=150, epsilon_final_steps=300),
                    np.random.default_rng(42), spec=spec, power_models={"masstree": model})
        env = make_environment(["masstree"], config["loads"], seed, spec)
        return [run_manager(twig, env, steps)]
    if case == "events":
        sink = MemorySink(validate=True)
        env = _paper_env(config, faults=FaultInjector(
            [Fault("pmc_dropout", "masstree", start=70, duration=2)]
        ))
        run_manager(_paper_twig(config), env, steps, obs=ObsContext(sink=sink))
        return event_lines(sink)
    raise ValueError(f"unknown paper-loop case {case!r}")


def experiment_config(config: Dict[str, Any]):
    """The ``ClusterConfig`` or ``HierConfig`` a golden experiment config names."""
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()
              if k not in ("loop", "experiment", "variant")}
    if config["experiment"] == "cluster":
        return cluster.ClusterConfig(**kwargs)
    return hier.HierConfig(**kwargs)


@functools.lru_cache(maxsize=None)
def _hier_traces(config: hier.HierConfig):
    """Every variant's traces of one hier run (one run serves all four ids)."""
    return hier.run(config).traces


def run_experiment(config: Dict[str, Any]):
    """Run one golden experiment config; one RunTrace per node."""
    if config["experiment"] == "cluster":
        return cluster.run(experiment_config(config)).traces
    return _hier_traces(experiment_config(config))[config["variant"]]


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


def config_sha256(config: Dict[str, Any]) -> str:
    if config.get("loop") == "experiment":
        return trace_sha256(run_experiment(config))
    output = run_paper(config) if config.get("loop") == "paper" else run_traces(config)
    if output and isinstance(output[0], str):
        return hashlib.sha256("\n".join(output).encode()).hexdigest()
    return trace_sha256(output)


ALL_CONFIGS: Dict[str, Dict[str, Any]] = {
    **FLEET_CONFIGS, **PAPER_CONFIGS, **EXPERIMENT_CONFIGS,
}


def compute_golden() -> Dict[str, str]:
    return {config_key(c): config_sha256(c) for c in ALL_CONFIGS.values()}


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(config_key(c) for c in ALL_CONFIGS.values())


@pytest.mark.parametrize("config_id", ["cluster", "hier-hier"])
def test_experiment_configs_are_the_cli_quick_scale(config_id):
    config = EXPERIMENT_CONFIGS[config_id]
    assert _config_for(config["experiment"], "quick") == experiment_config(config)


@pytest.mark.parametrize("config", list(ALL_CONFIGS.values()), ids=list(ALL_CONFIGS))
def test_run_trace_hash_unchanged(config):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert config_sha256(config) == golden[config_key(config)]


if __name__ == "__main__":
    hashes = compute_golden()
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(json.dumps(hashes, indent=2, sort_keys=True))
