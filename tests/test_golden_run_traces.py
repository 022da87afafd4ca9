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
  ``interval``/``qos_violation``/``fault``/``degraded`` events); a
  PARTIES fleet whose node 2 has its first service crashed across three
  polls, so rows whose leading latency ratio is NaN
  (``parties-crash-first``); and a Heracles fleet run past two
  main-controller polls (``heracles-fleet``).
- Paper-loop runs: one ``Twig`` on one ``ColocationEnvironment`` under
  ``run_manager`` — the bench ``twig_c`` recipe, Twig-C with every fault
  kind, Twig-C with the LLC branch, a mid-run service swap with
  ``transfer_to``, Twig-S with a fitted Equation-2 model, Twig-S with
  uniform replay, and the event stream of a short traced run (``events``
  hashes the JSON lines with ``run_end.wall_time_s`` dropped); one
  ``PartiesManager`` on the Figure 12/13 colocated recipe, with a
  ``service_crash`` that makes some p99 samples NaN (``parties-crash``);
  and ``run_single_service_comparison``'s ``HeraclesManager`` and
  ``HipsterManager`` runs on masstree at half load (``heracles``,
  ``hipster``), and an ``OracleManager`` run on the same recipe
  (``oracle``). Hipster and the Oracle place through ``Mapper.map``.
- Experiment runs: ``repro.experiments.cluster.run`` at the CLI's quick
  scale, ``repro.experiments.hier.run`` at quick scale, one hash per
  variant (hier, flat, static, PARTIES), and a longer ``hier`` run with
  a two-tick budget period, long enough for the budget allocator's own
  agent to train (at quick scale it stores 15 transitions, below its
  ``min_buffer_size`` of 16, and never does); and
  ``repro.experiments.fleet.run`` at the CLI's quick scale, the one run
  that steps the non-cluster engine and its ``ConstantLoad`` jitter
  streams.
- Engine states: the ``state_dict`` tree of a fresh 8-node cluster, of
  that cluster after a traced 20-tick learning run with faults on node 2
  (violation streaks and a ``faults`` subtree present), of a fresh
  4-environment ``VectorEnvironment.from_services`` fleet and of that
  fleet after 20 ticks. Each is hashed byte for byte as ``save_state``
  flattens it (every array leaf's path, dtype, shape and bytes in walk
  order, then the scalar leaves' JSON), so leaf order, dict key order
  and exact floats are pinned.

- Registered experiments at quick scale, each with the config
  ``repro.experiments.registry.config_for(id, "quick")`` that
  ``repro run <id>`` and the quick-scale benchmarks run, hashed over its
  result object's fields (names, keys and every number by its float64
  bit pattern, never the rounded table): Figures 1 and 4, Tables I and
  II, and Figures 5-13. Figures 5-13 take from a few seconds (fig06) to
  under a minute (fig09) each, so they are marked ``slow``: tier-1 skips
  them and ``make test-golden`` runs them. Table III is not hashed: its
  result is wall-clock timings.

A change that moves a trajectory on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_run_traces.py --write`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.baselines import HeraclesManager, HipsterManager, OracleManager, PartiesManager
from repro.ckpt.checkpoint import _flatten, _json_default
from repro.cluster.environment import ClusterEnvironment
from repro.core import Twig
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.experiments import cluster, fleet, hier
from repro.experiments.common import HarnessConfig, build_twig, make_environment
from repro.experiments.profiling import fit_service_power_model
from repro.experiments.registry import config_for, run_experiment as run_registered
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
    # PARTIES with node 2's first service down across three polls: rows
    # whose leading p99 ratio is NaN.
    "parties-crash-first": {
        "manager": "parties", **_FLEET, "fault_node": 2,
        "crash": {"service": "masstree", "start": 6, "duration": 5},
    },
    # A Heracles fleet past two main-controller polls (every 15 ticks).
    "heracles-fleet": {"manager": "heracles", **_FLEET, "services": ["masstree"],
                       "ticks": 40},
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
    # Figures 12/13: PARTIES on the colocated recipe at its quick-scale
    # step budget, with moses crashed for three intervals (NaN p99).
    "parties-crash": {"loop": "paper", "case": "parties", "services": ["masstree", "moses"],
                      "loads": [0.2, 0.6], "seed": 7, "steps": 400},
    # run_single_service_comparison's Heracles run: masstree at half
    # load, the quick harness's seed and step budget.
    "heracles": {"loop": "paper", "case": "heracles", "services": ["masstree"],
                 "loads": [0.5], "seed": 7, "steps": 300},
    # Its Hipster run at the quick harness's budget: the heuristic walk,
    # then the tabular Q-function after the learning phase.
    "hipster": {"loop": "paper", "case": "hipster", "services": ["masstree"],
                "loads": [0.5], "seed": 7, "steps": 800, "learning_phase": 500},
    # The offline-optimal table replayed on the same recipe.
    "oracle": {"loop": "paper", "case": "oracle", "services": ["masstree"],
               "loads": [0.5], "seed": 7, "steps": 300},
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
    # ``repro run fleet`` at the CLI's quick scale.
    "fleet-quick": {"loop": "experiment", "experiment": "fleet", "num_envs": 4,
                    "steps": 150, "epsilon_mid_steps": 60, "epsilon_final_steps": 120,
                    "window": 60},
}

#: The non-cluster fleet of the engine-state hashes.
_VECTOR = {"kind": "vector", "services": ["masstree", "xapian"], "loads": [0.4, 0.5],
           "nodes": 4, "seed": 7}

#: Engine ``state_dict`` trees, with their test ids: a fresh cluster, the
#: ``fleet-events`` cluster after its traced run, a fresh non-cluster
#: fleet and that fleet after 20 learning ticks.
STATE_CONFIGS: Dict[str, Dict[str, Any]] = {
    "state-cluster-fresh": {"loop": "state", "kind": "cluster", "manager": "twig",
                            **_FLEET, "ticks": 0},
    "state-cluster-traced": {"loop": "state", "kind": "cluster",
                             **FLEET_CONFIGS["fleet-events"]},
    "state-vector-fresh": {"loop": "state", **_VECTOR, "ticks": 0},
    "state-vector": {"loop": "state", **_VECTOR, "ticks": 20},
}

#: Registered experiments at quick scale, with their test ids; Figures
#: 5-13 are slow.
SLOW_HARNESS = [f"fig{n:02d}" for n in range(5, 14)]
HARNESS_CONFIGS: Dict[str, Dict[str, Any]] = {
    experiment: {"loop": "harness", "experiment": experiment, "scale": "quick"}
    for experiment in ["fig01", "fig04", "tab01", "tab02", *SLOW_HARNESS]
}

#: The ``parties-crash`` fault: moses down for three intervals.
PARTIES_CRASH = Fault("service_crash", "moses", start=150, duration=3)

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


def _fleet_twig(config: Dict[str, Any]) -> FleetTwig:
    twig_config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16)
    return FleetTwig(
        [get_profile(s) for s in config["services"]],
        twig_config.scaled(**config.get("agent", {})),
        np.random.default_rng(config["seed"] + 1),
        num_envs=config["nodes"],
    )


def _fleet(config: Dict[str, Any]):
    """The cluster and the manager of one golden fleet config."""
    services, nodes, seed = config["services"], config["nodes"], config["seed"]
    venv = ClusterEnvironment.from_services(
        services, num_nodes=nodes, seed=seed, traffic=config["traffic"],
        balancer=config["balancer"],
    )
    if "crash" in config:
        faults = [Fault("service_crash", **config["crash"])]
        venv.faults[config["fault_node"]] = FaultInjector(faults)
    elif "fault_node" in config:
        venv.faults[config["fault_node"]] = FaultInjector(list(FLEET_FAULTS))
    if config["manager"] == "twig":
        manager = _fleet_twig(config)
        manager.index_tag = "node"
    else:
        manager = make_rule_fleet(config["manager"], services, nodes, seed)
    return venv, manager


def run_traces(config: Dict[str, Any]):
    """Run one golden fleet config: one RunTrace per node, or the event lines."""
    venv, manager = _fleet(config)
    if config.get("events"):
        sink = MemorySink(validate=True)
        run_fleet(manager, venv, config["ticks"], obs=ObsContext(sink=sink))
        return event_lines(sink)
    return run_fleet(manager, venv, config["ticks"])


def _engine(config: Dict[str, Any]):
    """The engine and the manager of one golden engine-state config."""
    if config["kind"] == "cluster":
        return _fleet(config)
    services = config["services"]
    venv = VectorEnvironment.from_services(
        services, dict(zip(services, config["loads"])), config["nodes"], config["seed"],
    )
    return venv, _fleet_twig(config)


def run_state(config: Dict[str, Any]) -> Dict[str, Any]:
    """The ``state_dict`` of a golden engine config after its ticks."""
    venv, manager = _engine(config)
    if config["ticks"]:
        obs = ObsContext(sink=MemorySink(validate=True)) if config.get("events") else None
        run_fleet(manager, venv, config["ticks"], obs=obs)
    return venv.state_dict()


def state_sha256(tree: Dict[str, Any]) -> str:
    """sha256 over a state tree flattened as ``save_state`` flattens it:
    each array leaf's path, dtype, shape and bytes in walk order, then
    the scalar leaves' JSON."""
    arrays, scalars = _flatten(tree)
    digest = hashlib.sha256()
    for path, array in arrays.items():
        digest.update(f"{path}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(json.dumps(scalars, default=_json_default).encode())
    return digest.hexdigest()


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
    if case == "parties":
        # repro.experiments.common.run_colocated_comparison's PARTIES run.
        manager = PartiesManager([get_profile(name) for name in config["services"]],
                                 np.random.default_rng(3), spec=ServerSpec())
        env = _paper_env(config, faults=FaultInjector([PARTIES_CRASH]))
        return [run_manager(manager, env, steps)]
    if case == "heracles":
        env = make_environment(config["services"], config["loads"], seed, ServerSpec())
        manager = HeraclesManager(get_profile(config["services"][0]), spec=ServerSpec())
        return [run_manager(manager, env, steps)]
    if case == "hipster":
        env = make_environment(config["services"], config["loads"], seed, ServerSpec())
        manager = HipsterManager(get_profile(config["services"][0]), np.random.default_rng(3),
                                 spec=ServerSpec(),
                                 learning_phase_steps=config["learning_phase"])
        return [run_manager(manager, env, steps)]
    if case == "oracle":
        env = make_environment(config["services"], config["loads"], seed, ServerSpec())
        manager = OracleManager(get_profile(config["services"][0]), spec=ServerSpec())
        return [run_manager(manager, env, steps)]
    if case == "events":
        sink = MemorySink(validate=True)
        env = _paper_env(config, faults=FaultInjector(
            [Fault("pmc_dropout", "masstree", start=70, duration=2)]
        ))
        run_manager(_paper_twig(config), env, steps, obs=ObsContext(sink=sink))
        return event_lines(sink)
    raise ValueError(f"unknown paper-loop case {case!r}")


def experiment_config(config: Dict[str, Any]):
    """The ``ClusterConfig``, ``FleetConfig`` or ``HierConfig`` a golden
    experiment config names."""
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()
              if k not in ("loop", "experiment", "variant")}
    if config["experiment"] == "cluster":
        return cluster.ClusterConfig(**kwargs)
    if config["experiment"] == "fleet":
        return fleet.FleetConfig(**kwargs)
    return hier.HierConfig(**kwargs)


@functools.lru_cache(maxsize=None)
def _hier_traces(config: hier.HierConfig):
    """Every variant's traces of one hier run (one run serves all four ids)."""
    return hier.run(config).traces


def run_experiment(config: Dict[str, Any]):
    """Run one golden experiment config; one RunTrace per node."""
    if config["experiment"] == "cluster":
        return cluster.run(experiment_config(config)).traces
    if config["experiment"] == "fleet":
        return fleet.run(experiment_config(config)).traces
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


def result_sha256(result) -> str:
    """sha256 over a result object: field names, mapping keys, strings,
    and every number as float64 bits. A sequence of numbers hashes the
    same as a list or as an array."""
    digest = hashlib.sha256()

    def feed(value) -> None:
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                digest.update(f.name.encode())
                feed(getattr(value, f.name))
        elif isinstance(value, dict):
            for key, item in value.items():
                digest.update(repr(key).encode())
                feed(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        elif isinstance(value, str):
            digest.update(value.encode())
        elif value is None:
            digest.update(b"None")
        else:
            digest.update(np.asarray(value, dtype=np.float64).tobytes())

    feed(result)
    return digest.hexdigest()


def config_sha256(config: Dict[str, Any]) -> str:
    if config.get("loop") == "harness":
        experiment = config["experiment"]
        return result_sha256(
            run_registered(experiment, config_for(experiment, config["scale"]))
        )
    if config.get("loop") == "experiment":
        return trace_sha256(run_experiment(config))
    if config.get("loop") == "state":
        return state_sha256(run_state(config))
    output = run_paper(config) if config.get("loop") == "paper" else run_traces(config)
    if output and isinstance(output[0], str):
        return hashlib.sha256("\n".join(output).encode()).hexdigest()
    return trace_sha256(output)


ALL_CONFIGS: Dict[str, Dict[str, Any]] = {
    **FLEET_CONFIGS, **PAPER_CONFIGS, **EXPERIMENT_CONFIGS, **STATE_CONFIGS,
    **HARNESS_CONFIGS,
}


def compute_golden() -> Dict[str, str]:
    return {config_key(c): config_sha256(c) for c in ALL_CONFIGS.values()}


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(config_key(c) for c in ALL_CONFIGS.values())


@pytest.mark.parametrize("config_id", ["cluster", "hier-hier", "fleet-quick"])
def test_experiment_configs_are_the_cli_quick_scale(config_id):
    config = EXPERIMENT_CONFIGS[config_id]
    assert config_for(config["experiment"], "quick") == experiment_config(config)


@pytest.mark.parametrize("config", [
    pytest.param(c, marks=pytest.mark.slow) if c.get("experiment") in SLOW_HARNESS else c
    for c in ALL_CONFIGS.values()
], ids=list(ALL_CONFIGS))
def test_run_trace_hash_unchanged(config):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert config_sha256(config) == golden[config_key(config)]


@pytest.mark.parametrize("config", list(STATE_CONFIGS.values()), ids=list(STATE_CONFIGS))
def test_state_tree_loads_back_byte_for_byte(config):
    """A fresh engine that loads a golden state writes it back unchanged."""
    tree = run_state(config)
    fresh, _ = _engine(config)
    fresh.load_state_dict(tree)
    assert state_sha256(fresh.state_dict()) == state_sha256(tree)


#: sha256 of ``RunTrace.to_csv`` for the ``parties-crash`` run (NaN p99
#: rows included), written when trace series were Python lists.
TO_CSV_SHA256 = "8882da7d17b902a81a894bb1f947bcb6a720ebb25bc39679bba16221aec09b99"


#: sha256 of ``RunTrace.to_csv`` for the ``twig-c-transfer`` run: 240
#: rows, moses's cells empty from step 121 on and img-dnn's before it.
TRANSFER_CSV_SHA256 = "bad17c3beff06a8d455064e0d9bd2fcef3bb97d66011e90bf0be8bf84c0c6d2c"


def test_to_csv_bytes_unchanged(tmp_path):
    [trace] = run_paper(PAPER_CONFIGS["parties-crash"])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TO_CSV_SHA256


def test_to_csv_puts_a_swapped_service_on_its_steps(tmp_path):
    [trace] = run_paper(PAPER_CONFIGS["twig-c-transfer"])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert len(rows) == trace.steps() == 240
    moses, img_dnn = header.index("moses.p99_ms"), header.index("img-dnn.p99_ms")
    assert [row[moses] != "" for row in rows] == [t <= 120 for t in range(240)]
    assert [row[img_dnn] != "" for row in rows] == [t > 120 for t in range(240)]
    assert float(rows[121][img_dnn]) == trace.services["img-dnn"].p99_ms[0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRANSFER_CSV_SHA256


if __name__ == "__main__":
    hashes = compute_golden()
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(json.dumps(hashes, indent=2, sort_keys=True))
