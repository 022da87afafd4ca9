"""Perf smoke benchmarks: batch runner, PER sampling, and the BDQ hot path.

Unlike the paper-artifact benchmarks, these measure the *harness itself*:

- serial ``run_experiments`` vs the same batch with ``jobs`` workers;
- the per-transition Python sampling loop (the pre-vectorization
  implementation, kept here as a reference) vs the batched
  ``PrioritizedReplayBuffer.sample`` / ``SumTree.find_batch`` path;
- the fused head-bank ``BDQAgent.train_step`` / ``act`` vs the frozen
  per-head loop implementation (:mod:`repro.rl.bdq_reference`), at 1, 2
  and 4 colocated agents;
- the vectorized rollout engine: the fleet agent's fused train step and
  batched act at 1, 2 and 4 colocated agents, and the end-to-end
  experiment-suite throughput of ``--engine vector`` vs the serial
  scalar loop;
- the cluster layer: whole-cluster step throughput (traffic model ->
  load balancer -> fused node physics) at 64 and 256 nodes with 4
  colocated services per node;
- the hierarchical stack: the same 64/256-node clusters driven through
  ``HierFleetTwig.update_batch`` with the budget allocator active, so
  the delta over ``cluster_step`` prices two-level control.

Each test appends its measurement to ``BENCH_perf_smoke.json`` at the repo
root so the performance trajectory is recorded across PRs. Run via
``make bench-smoke``. Assertions are deliberately lenient (no-regression
smoke, not a rigorous benchmark): they only require the fast path not to be
slower than the slow one by more than measurement noise.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.engine.fleet import FleetBDQAgent
from repro.experiments.fleet import FleetConfig, run as run_fleet_experiment
from repro.experiments.runner import run_experiments
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.rl.bdq_reference import ReferenceBDQAgent
from repro.rl.prioritized import PrioritizedReplayBuffer

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_perf_smoke.json"


def _record(name: str, metrics: dict) -> None:
    data = {"schema": 1, "benchmarks": {}}
    if BENCH_PATH.exists():
        # Fail loudly on a torn or corrupt file rather than silently
        # resetting the recorded performance trajectory: the file is the
        # cross-PR record, and overwriting it would hide the damage.
        text = BENCH_PATH.read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RuntimeError(
                f"{BENCH_PATH} is torn or corrupt ({exc}); refusing to "
                "overwrite the benchmark history — repair or delete it first"
            ) from exc
        if not isinstance(data, dict) or not isinstance(
            data.get("benchmarks"), dict
        ):
            raise RuntimeError(
                f"{BENCH_PATH} does not look like a benchmark record "
                "(missing 'benchmarks' mapping); refusing to overwrite it"
            )
    # Copy: the caller's dict often keeps being used for assertions.
    metrics = dict(metrics)
    metrics["recorded_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    data["benchmarks"][name] = metrics
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _best_block_s(fn, rounds: int, per_block: int = 2) -> float:
    """Per-call seconds: minimum mean over many short timing blocks.

    One long timed run mixes the steady-state cost with one-off noise
    (allocator warm-up, page faults, scheduler preemption on a shared
    box); the minimum over short blocks is the standard robust estimate
    of the repeatable cost (what ``timeit`` reports). Blocks are kept
    short so at least some windows dodge preemption entirely.
    """
    best = float("inf")
    for _ in range(max(1, rounds // per_block)):
        t0 = time.perf_counter()
        for _ in range(per_block):
            fn()
        best = min(best, (time.perf_counter() - t0) / per_block)
    return best


def _best_block_interleaved_s(fns, rounds: int, per_block: int = 2):
    """`_best_block_s` for several functions with interleaved blocks.

    Measuring two implementations back to back puts them in *different*
    timing windows; on a shared box whose throughput drifts between
    windows, their ratio then measures the machine as much as the code.
    Alternating short blocks samples every window with both functions,
    so slow windows inflate (and fast windows flatter) both sides alike
    and the min-over-blocks ratio reflects the code alone.
    """
    best = [float("inf")] * len(fns)
    for _ in range(max(1, rounds // per_block)):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            for _ in range(per_block):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t0) / per_block)
    return best


def _looped_sample(buffer: PrioritizedReplayBuffer, batch_size: int, beta: float):
    """Reference one-transition-at-a-time sampler (pre-vectorization)."""
    total = buffer._tree.total
    segment = total / batch_size
    indices = np.empty(batch_size, dtype=np.int64)
    priorities = np.empty(batch_size)
    for i in range(batch_size):
        mass = segment * i + buffer._rng.random() * segment
        leaf = buffer._tree.find(mass)
        indices[i] = leaf
        priorities[i] = buffer._tree[leaf]
    probabilities = priorities / total
    weights = (len(buffer) * probabilities) ** (-beta)
    weights /= weights.max()
    batch = buffer.gather(indices)
    batch["weights"] = weights
    return batch


def _fill(capacity: int, size: int) -> PrioritizedReplayBuffer:
    rng = np.random.default_rng(0)
    buffer = PrioritizedReplayBuffer(capacity, rng)
    transition = {"state": np.zeros(11), "reward": np.array(0.0)}
    for _ in range(size):
        buffer.add(transition)
    buffer.update_priorities(
        np.arange(size), np.random.default_rng(1).random(size) * 3
    )
    return buffer


def test_batched_per_sampling_vs_loop():
    size, batch_size, rounds = 16_384, 64, 200
    looped_buffer = _fill(size, size)
    batched_buffer = _fill(size, size)

    t0 = time.perf_counter()
    for _ in range(rounds):
        _looped_sample(looped_buffer, batch_size, beta=0.6)
    looped_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        batched_buffer.sample(batch_size, beta=0.6)
    batched_s = time.perf_counter() - t0

    speedup = looped_s / batched_s
    print(
        f"\nPER sample({batch_size}) x {rounds} @ buffer {size}: "
        f"looped {looped_s:.3f}s, batched {batched_s:.3f}s, {speedup:.1f}x"
    )
    _record(
        "per_sample_batched",
        {
            "buffer_size": size,
            "batch_size": batch_size,
            "rounds": rounds,
            "looped_s": round(looped_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup > 1.0, f"batched sampling slower than the loop ({speedup:.2f}x)"


def _bdq_agent(cls, num_agents: int, seed: int = 0) -> BDQAgent:
    """A paper-shaped agent (512-256 trunk, 128-wide heads, dropout 0.5)."""
    config = BDQAgentConfig(
        state_dim=11 * num_agents,
        branch_sizes=[[18, 9]] * num_agents,
        batch_size=64,
        min_buffer_size=64,
        buffer_capacity=4_096,
    )
    agent = cls(config, np.random.default_rng(seed))
    feeder = np.random.default_rng(seed + 1)
    for _ in range(256):
        state = feeder.normal(size=config.state_dim)
        actions = [
            [int(feeder.integers(0, n)) for n in branch]
            for branch in config.branch_sizes
        ]
        agent.buffer.add(
            {
                "state": state,
                "actions": np.asarray(
                    [a for branch in actions for a in branch], dtype=np.float64
                ),
                "rewards": feeder.normal(size=num_agents),
                "next_state": feeder.normal(size=config.state_dim),
                "done": np.asarray(0.0),
            }
        )
    agent.step_count = 300  # past min_buffer_size bookkeeping
    return agent


def test_bdq_train_step_fused_vs_loop():
    rounds = {1: 40, 2: 30, 4: 20}
    results = {}
    for num_agents, n in rounds.items():
        agents = {}
        for key, cls in (("loop", ReferenceBDQAgent), ("fused", BDQAgent)):
            agents[key] = agent = _bdq_agent(cls, num_agents)
            for _ in range(3):  # warm up buffers / optimizer state
                agent.train_step()
        loop_s, fused_s = _best_block_interleaved_s(
            [agents["loop"].train_step, agents["fused"].train_step], n
        )
        timings = {"loop": loop_s, "fused": fused_s}
        speedup = timings["loop"] / timings["fused"]
        results[f"agents_{num_agents}"] = {
            "batch_size": 64,
            "rounds": n,
            "loop_ms": round(timings["loop"] * 1e3, 3),
            "fused_ms": round(timings["fused"] * 1e3, 3),
            "speedup": round(speedup, 2),
        }
        print(
            f"\nbdq train_step ({num_agents} agents, batch 64): "
            f"loop {timings['loop'] * 1e3:.2f}ms, fused {timings['fused'] * 1e3:.2f}ms, "
            f"{speedup:.1f}x"
        )
    _record("bdq_train_step", results)
    # The acceptance bar: the fused head bank must beat the per-head loop
    # by >= 1.5x on the paper's Twig-C shape (2 colocated agents).
    assert results["agents_2"]["speedup"] >= 1.5, results


def test_bdq_act_fused_vs_loop():
    rounds = {1: 400, 2: 300, 4: 200}
    results = {}
    for num_agents, n in rounds.items():
        steps = {}
        for key, cls in (("loop", ReferenceBDQAgent), ("fused", BDQAgent)):
            agent = _bdq_agent(cls, num_agents)
            feeder = np.random.default_rng(9)
            states = feeder.normal(size=(8, agent.config.state_dim))
            it = [0]

            def step(agent=agent, states=states, it=it):
                agent.act(states[it[0] % len(states)])
                it[0] += 1

            for _ in range(5):
                step()  # warm up the fast-path buffers
            steps[key] = step
        loop_s, fused_s = _best_block_interleaved_s(
            [steps["loop"], steps["fused"]], n, per_block=8
        )
        timings = {"loop": loop_s, "fused": fused_s}
        speedup = timings["loop"] / timings["fused"]
        results[f"agents_{num_agents}"] = {
            "rounds": n,
            "loop_us": round(timings["loop"] * 1e6, 1),
            "fused_us": round(timings["fused"] * 1e6, 1),
            "speedup": round(speedup, 2),
        }
        print(
            f"\nbdq act ({num_agents} agents): "
            f"loop {timings['loop'] * 1e6:.0f}us, fused {timings['fused'] * 1e6:.0f}us, "
            f"{speedup:.1f}x"
        )
    _record("bdq_act", results)
    # act runs once per simulated second in every experiment; the fast
    # path must never lose to the loop.
    assert all(r["speedup"] > 1.0 for r in results.values()), results


def test_checkpoint_roundtrip(tmp_path):
    """Full-state agent checkpoint save/load cost and file size.

    Checkpoints are written every N control intervals inside a run
    (``--checkpoint-every``), so their cost bounds how often crash-safety
    is affordable: the save must stay far below one 1 s control interval.
    """
    results = {}
    for num_agents, rounds in {1: 20, 2: 15, 4: 10}.items():
        agent = _bdq_agent(BDQAgent, num_agents)
        for _ in range(3):  # populate optimizer moments and RNG history
            agent.train_step()
        path = tmp_path / f"agent_{num_agents}.ckpt.npz"

        save_s = _best_block_s(lambda: agent.save(path), rounds)

        loader = _bdq_agent(BDQAgent, num_agents, seed=7)
        load_s = _best_block_s(lambda: loader.load(path), rounds)

        size_kb = path.stat().st_size / 1024.0
        results[f"agents_{num_agents}"] = {
            "rounds": rounds,
            "save_ms": round(save_s * 1e3, 3),
            "load_ms": round(load_s * 1e3, 3),
            "file_kb": round(size_kb, 1),
        }
        print(
            f"\ncheckpoint roundtrip ({num_agents} agents): "
            f"save {save_s * 1e3:.1f}ms, load {load_s * 1e3:.1f}ms, "
            f"{size_kb:.0f} KB"
        )
        # The bar: both directions comfortably inside one control interval.
        assert save_s < 1.0 and load_s < 1.0, results
    _record("checkpoint_roundtrip", results)


def _fleet_agent(num_agents: int, num_envs: int = 8, seed: int = 0) -> FleetBDQAgent:
    """A fleet agent with every replay stripe warmed up.

    Shaped like the network the vector engine actually deploys
    (``TwigConfig.fast()``: 128-64 trunk, 32-wide heads) rather than the
    paper's 512-256 offline shape — the <5 ms bar below is about the
    engine's per-tick learning cost, and this is the tick it runs.
    """
    config = BDQAgentConfig(
        state_dim=11 * num_agents,
        branch_sizes=[[18, 9]] * num_agents,
        batch_size=64,
        min_buffer_size=64,
        buffer_capacity=4_096,
        shared_hidden=(128, 64),
        branch_hidden=32,
        dropout=0.1,
    )
    agent = FleetBDQAgent(config, np.random.default_rng(seed), num_envs=num_envs)
    feeder = np.random.default_rng(seed + 1)
    for i in range(32 * num_envs):
        actions = [
            [int(feeder.integers(0, n)) for n in branch]
            for branch in config.branch_sizes
        ]
        agent.striped.add(
            i % num_envs,
            {
                "state": feeder.normal(size=config.state_dim),
                "actions": np.asarray(
                    [a for branch in actions for a in branch], dtype=np.float64
                ),
                "rewards": feeder.normal(size=num_agents),
                "next_state": feeder.normal(size=config.state_dim),
                "done": np.asarray(0.0),
            },
        )
    agent.step_count = 300  # past min_buffer_size bookkeeping
    return agent


def test_vector_rollout_train_and_act():
    """Fleet-agent hot path: ONE fused train round / act per tick for N envs.

    The tentpole target: the fused train step (one minibatch sampled
    across all replay stripes, one forward/backward) stays under 5 ms at
    4 colocated agents, so a fleet tick's learning cost is amortised
    across however many environments share the agent.
    """
    num_envs = 8
    rounds = {1: 40, 2: 30, 4: 20}
    results = {}
    for num_agents, n in rounds.items():
        agent = _fleet_agent(num_agents, num_envs=num_envs)
        states = np.random.default_rng(9).normal(
            size=(num_envs, agent.config.state_dim)
        )
        for _ in range(3):  # warm up optimizer state / fast-path buffers
            agent.train_step()
            agent.act_batch(states)
        train_s = _best_block_s(agent.train_step, n)
        act_s = _best_block_s(lambda: agent.act_batch(states), n, per_block=4)
        results[f"agents_{num_agents}"] = {
            "num_envs": num_envs,
            "batch_size": 64,
            "rounds": n,
            "train_ms": round(train_s * 1e3, 3),
            "act_batch_us": round(act_s * 1e6, 1),
        }
        print(
            f"\nfleet train_step ({num_agents} agents, {num_envs} envs, batch 64): "
            f"{train_s * 1e3:.2f}ms; act_batch {act_s * 1e6:.0f}us"
        )
    _record("vector_rollout", results)
    # The acceptance bar: one fused train round stays well inside a 1 s
    # control interval at the paper's largest colocation shape.
    assert results["agents_4"]["train_ms"] < 5.0, results


def test_experiment_suite_throughput(tmp_path):
    """End-to-end: N lock-step experiments via --engine vector vs serial.

    The scalar side runs N independent ``run_manager`` loops (one Twig,
    one environment each); the vector side steps all N through one fused
    act/train path. Speedup is recorded, not asserted: it depends on the
    benchmark machine (BLAS threading, cache sizes), and the cpu count
    recorded alongside is what makes it interpretable across machines.
    """
    num_envs, steps = 8, 250
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    base = dict(
        num_envs=num_envs,
        steps=steps,
        epsilon_mid_steps=100,
        epsilon_final_steps=200,
        window=100,
    )

    t0 = time.perf_counter()
    vector = run_fleet_experiment(FleetConfig(engine="vector", **base))
    vector_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar = run_fleet_experiment(FleetConfig(engine="scalar", **base))
    scalar_s = time.perf_counter() - t0

    assert vector.num_envs == scalar.num_envs == num_envs
    assert all(np.isfinite(p) for p in vector.mean_power_w)

    speedup = scalar_s / vector_s
    print(
        f"\nfleet suite ({num_envs} envs x {steps} steps, {cpus} cpus): "
        f"scalar {scalar_s:.2f}s, vector {vector_s:.2f}s, {speedup:.2f}x"
    )
    _record(
        "experiment_suite_throughput",
        {
            "num_envs": num_envs,
            "steps": steps,
            "cpus": cpus,
            "scalar_s": round(scalar_s, 3),
            "vector_s": round(vector_s, 3),
            "speedup": round(speedup, 2),
        },
    )


def test_cluster_step(tmp_path):
    """Cluster-environment step throughput: substrate floor and install.

    Measures one fused traffic -> balancer -> (node x service) physics
    step of ``ClusterEnvironment`` with the paper's 4-service colocation
    on every node. The static case (64, 256 and 1024 nodes) gives every
    node the same assignment every step — no agent in the loop and no
    install, this is the substrate's cost floor. The alternating case
    (256 and 1024 nodes) switches every node between two mapper
    placements each step, so each step installs N new assignments: the
    install cost a learning fleet pays every tick. Records whole-cluster
    steps/sec, the per-node step rate and the CPU count into
    ``BENCH_perf_smoke.json``.
    """
    from repro.cluster import ClusterEnvironment
    from repro.core.actions import Allocation
    from repro.core.mapper import Mapper

    services = ["masstree", "xapian", "moses", "img-dnn"]
    results = {"cpus": len(os.sched_getaffinity(0))}
    cases = [
        ("static", 64, 20), ("static", 256, 20), ("static", 1024, 6),
        ("alternating", 256, 20), ("alternating", 1024, 6),
    ]
    for case, num_nodes, rounds in cases:
        venv = ClusterEnvironment.from_services(
            services, num_nodes=num_nodes, seed=7,
            traffic="diurnal", balancer="power_of_two",
        )
        mapper = Mapper(venv.spec, socket_index=venv.config.socket_index)
        top = len(venv.spec.dvfs) - 1
        static = mapper.map(
            {name: Allocation(num_cores=4, freq_index=top) for name in services}
        )
        if case == "static":
            placements = [[static] * num_nodes]
        else:
            # Over the socket's 18 cores, so some cores are timeshared.
            other = mapper.map(
                {
                    name: Allocation(num_cores=3 + 2 * i, freq_index=top - i)
                    for i, name in enumerate(services)
                }
            )
            placements = [[static] * num_nodes, [other] * num_nodes]
        schedule = itertools.cycle(placements)

        def step():
            venv.step(next(schedule))

        for _ in range(2):  # warm up caches / shard maps
            step()
        step_s = _best_block_s(step, rounds)
        steps_per_s = 1.0 / step_s
        key = f"nodes_{num_nodes}" if case == "static" else f"{case}_nodes_{num_nodes}"
        results[key] = {
            "services": len(services),
            "rounds": rounds,
            "step_ms": round(step_s * 1e3, 3),
            "steps_per_s": round(steps_per_s, 2),
            "node_steps_per_s": round(steps_per_s * num_nodes, 1),
        }
        print(
            f"\ncluster step, {case} ({num_nodes} nodes x {len(services)} "
            f"services): {step_s * 1e3:.1f}ms/step, {steps_per_s:.1f} steps/s, "
            f"{steps_per_s * num_nodes:.0f} node-steps/s"
        )
    _record("cluster_step", results)
    # The bar from the fleet layer's design goal: a 256-node cluster tick
    # stays well inside one simulated control interval (1 s).
    assert results["nodes_256"]["step_ms"] < 1000.0, results
    assert results["alternating_nodes_256"]["step_ms"] < 1000.0, results


def test_cluster_step_shard(tmp_path):
    """Sharded multi-core stepping vs the in-process vector engine.

    Same 1024-node substrate as ``test_cluster_step`` but stepped through
    ``ShardedClusterEnvironment`` with 4 worker processes. Records the
    measured speedup over the serial vector engine plus the worker and
    CPU counts; like the parallel-runner smoke, the speedup is recorded
    rather than asserted — on a 1-CPU container the barrier and IPC
    overhead make workers a net loss, and the number only becomes a
    claim on a machine with spare cores (trajectory bit-identity is the
    asserted contract, in ``tests/test_engine_sharded.py``).
    """
    from repro.cluster import ClusterEnvironment
    from repro.core.actions import Allocation
    from repro.core.mapper import Mapper
    from repro.engine.sharded import ShardedClusterEnvironment

    services = ["masstree", "xapian", "moses", "img-dnn"]
    num_nodes, workers, rounds = 1024, 4, 3
    timings = {}
    for engine in ("vector", "shard"):
        if engine == "shard":
            venv = ShardedClusterEnvironment.from_services(
                services, num_nodes=num_nodes, seed=7,
                traffic="diurnal", balancer="power_of_two", workers=workers,
            )
        else:
            venv = ClusterEnvironment.from_services(
                services, num_nodes=num_nodes, seed=7,
                traffic="diurnal", balancer="power_of_two",
            )
        try:
            mapper = Mapper(venv.spec, socket_index=venv.config.socket_index)
            top = len(venv.spec.dvfs) - 1
            assignment = mapper.map(
                {name: Allocation(num_cores=4, freq_index=top) for name in services}
            )
            assignments = [assignment] * num_nodes
            for _ in range(2):
                venv.step(assignments)
            timings[engine] = _best_block_s(
                lambda: venv.step(assignments), rounds
            )
        finally:
            venv.close()
    speedup = timings["vector"] / timings["shard"]
    cpus = len(os.sched_getaffinity(0))
    steps_per_s = 1.0 / timings["shard"]
    results = {
        "nodes": num_nodes,
        "services": len(services),
        "workers": workers,
        "cpus": cpus,
        "rounds": rounds,
        "vector_step_ms": round(timings["vector"] * 1e3, 3),
        "shard_step_ms": round(timings["shard"] * 1e3, 3),
        "shard_node_steps_per_s": round(steps_per_s * num_nodes, 1),
        "speedup": round(speedup, 2),
    }
    print(
        f"\ncluster shard step ({num_nodes} nodes, {workers} workers, "
        f"{cpus} cpus): vector {timings['vector'] * 1e3:.1f}ms -> shard "
        f"{timings['shard'] * 1e3:.1f}ms/step ({speedup:.2f}x)"
    )
    _record("cluster_step_shard", results)


def test_hier_step(tmp_path):
    """Hierarchical fleet tick throughput at 64 and 256 nodes.

    Unlike ``test_cluster_step`` (static assignments, substrate only),
    this drives the full two-level control stack per tick: cluster
    physics -> HierFleetTwig.update_batch (fused leaf act/train, budget
    reward shaping, greedy action repair) with the budget allocator
    deciding every 4 ticks. The delta over ``cluster_step`` is the
    all-in cost of hierarchical control.
    """
    from repro.cluster import ClusterEnvironment
    from repro.core.config import TwigConfig
    from repro.hier import BudgetConfig, HierFleetTwig
    from repro.services.profiles import get_profile

    services = ["masstree", "xapian", "moses", "img-dnn"]
    results = {}
    for num_nodes, rounds in {64: 20, 256: 8}.items():
        venv = ClusterEnvironment.from_services(
            services, num_nodes=num_nodes, seed=7,
            traffic="diurnal", balancer="least_loaded",
        )
        manager = HierFleetTwig(
            [get_profile(s) for s in services],
            TwigConfig.fast(epsilon_mid_steps=50, epsilon_final_steps=100),
            np.random.default_rng(8),
            num_envs=num_nodes,
            budget=BudgetConfig(period=4),
            allocator_rng=np.random.default_rng(9),
        )
        manager.index_tag = "node"
        state = {"assignments": manager.initial_assignments()}

        def tick(state=state, manager=manager, venv=venv):
            step_results = venv.step(state["assignments"])
            state["assignments"] = manager.update_batch(step_results)

        for _ in range(5):  # warm up caches and cross one allocator decision
            tick()
        assert manager.allocator.primed  # the allocator is actually in the loop
        step_s = _best_block_s(tick, rounds)
        steps_per_s = 1.0 / step_s
        results[f"nodes_{num_nodes}"] = {
            "services": len(services),
            "budget_period": 4,
            "rounds": rounds,
            "step_ms": round(step_s * 1e3, 3),
            "steps_per_s": round(steps_per_s, 2),
            "node_steps_per_s": round(steps_per_s * num_nodes, 1),
        }
        print(
            f"\nhier step ({num_nodes} nodes x {len(services)} services, "
            f"period 4): {step_s * 1e3:.1f}ms/step, {steps_per_s:.1f} steps/s, "
            f"{steps_per_s * num_nodes:.0f} node-steps/s"
        )
    _record("hier_step", results)
    # Same bar as the substrate: a 256-node hierarchical tick must stay
    # inside one simulated 1 s control interval.
    assert results["nodes_256"]["step_ms"] < 1000.0, results


def test_ctrl_rpc_throughput():
    """Control-plane RPC round-trip rate on loopback TCP.

    A coordinator with 8 registered (heartbeating) nodes answers
    ``allocate`` and ``status`` over newline-delimited JSON-RPC from one
    persistent client connection. Requests/s is recorded, not asserted:
    it prices the online-allocation serving path (socket round trip +
    JSON codec + balancer solve) on whatever CPU the benchmark box has,
    and the recorded cpu count is what makes it comparable across runs.
    """
    from repro.ctrl.coordinator import Coordinator
    from repro.ctrl.registry import ManualClock
    from repro.ctrl.rpc import RpcClient

    services = ["masstree", "xapian"]
    demand = {"masstree": 4000.0, "xapian": 1200.0}
    num_nodes, rounds = 8, 200
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    clock = ManualClock()
    with Coordinator(services, seed=3, clock=clock) as coordinator:
        for i in range(num_nodes):
            record = coordinator.registry.register(
                f"bench-{i}", f"127.0.0.1:{9000 + i}", services
            )
            coordinator.registry.heartbeat(record.node_id, record.epoch)
        with RpcClient(coordinator.address, timeout_s=30.0) as cli:
            for _ in range(5):  # warm up the connection and codec paths
                cli.call("allocate", {"demand": demand})
                cli.call("status")
            allocate_s = _best_block_s(
                lambda: cli.call("allocate", {"demand": demand}),
                rounds,
                per_block=10,
            )
            status_s = _best_block_s(
                lambda: cli.call("status"), rounds, per_block=10
            )

    results = {
        "nodes": num_nodes,
        "services": len(services),
        "rounds": rounds,
        "cpus": cpus,
        "allocate_us": round(allocate_s * 1e6, 1),
        "allocate_rps": round(1.0 / allocate_s, 1),
        "status_us": round(status_s * 1e6, 1),
        "status_rps": round(1.0 / status_s, 1),
    }
    print(
        f"\nctrl rpc ({num_nodes} nodes, {cpus} cpus): "
        f"allocate {allocate_s * 1e6:.0f}us ({1.0 / allocate_s:.0f} req/s), "
        f"status {status_s * 1e6:.0f}us ({1.0 / status_s:.0f} req/s)"
    )
    _record("ctrl_rpc_throughput", results)


def test_parallel_runner_vs_serial(tmp_path):
    ids = ["tab03", "fig04", "tab02", "mem"]  # slowest first helps scheduling
    jobs = 4
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    # Warm the experiment-module imports so neither timed run pays them.
    run_experiments(["mem"], out_dir=tmp_path / "warmup")

    t0 = time.perf_counter()
    serial = run_experiments(ids, out_dir=tmp_path / "serial")
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_experiments(ids, out_dir=tmp_path / "parallel", jobs=jobs)
    parallel_s = time.perf_counter() - t0

    assert all(r.ok for r in serial) and all(r.ok for r in parallel)
    for s, p in zip(serial, parallel):
        assert s.manifest.comparable_dict() == p.manifest.comparable_dict()

    speedup = serial_s / parallel_s
    effective_jobs = min(jobs, os.cpu_count() or 1, len(ids))
    print(
        f"\nrun_experiments({len(ids)} experiments): serial {serial_s:.2f}s, "
        f"--jobs {jobs} (effective {effective_jobs} on {cpus} cpus) "
        f"{parallel_s:.2f}s, {speedup:.1f}x"
    )
    # Speedup is recorded, not asserted: it is a property of the benchmark
    # machine (on single-core CI the runner clamps to the serial path and
    # the honest answer is ~1.0x), and the cpu count recorded alongside it
    # is what makes the number interpretable across machines.
    _record(
        "run_experiments_jobs",
        {
            "experiments": ids,
            "jobs": jobs,
            "effective_jobs": effective_jobs,
            "cpus": cpus,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(speedup, 2),
        },
    )
