# Development targets. Everything assumes the src/ layout:
# PYTHONPATH=src is injected so no install step is needed.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-matrix test-golden test-robust test-fleet test-hier test-ctrl trace-e2e bench bench-smoke docs-check profile-cluster

## Tier-1: the full unit/property/integration suite (excludes -m slow).
## Includes tests/test_repo_hygiene.py, which fails if bytecode, caches,
## or build artifacts are ever tracked by git again, and
## tests/test_bench_hooks.py, which fails if a class attribute
## bench/tracer.py wraps, or a repro name bench/ imports, moves.
test:
	$(PYTEST) -x -q

## Tier-1 on two machine shapes: pinned to one CPU (taskset -c 0), then
## unrestricted, so a test that assumes a CPU count fails on either.
test-matrix:
	PYTHONPATH=src taskset -c 0 $(PYTHON) -m pytest -x -q
	$(PYTEST) -x -q

## Golden hashes and checkpoint fixtures: the fleet, cluster/hier
## experiment and paper-loop run-trace hashes
## (tests/data/golden_run_traces.json), the checkpoints written before
## Twig became a one-server FleetTwig, a vector_run checkpoint written
## before assignments became arrays, and a vector_run checkpoint whose
## manager subtree has the per-env-dict layout the dict-state reference
## fleet writes (tests/test_dict_fleet_run_fixture.py). `-m ""` also
## runs the slow-marked hashes that tier-1 skips: Figures 5-13 at quick
## scale (repro.experiments.registry.config_for), fig09 the longest at
## about 45 s. The whole target took 147 s on a 2-CPU box before the CLI
## and the benchmarks shared one scale table, and 137 s after.
test-golden:
	$(PYTEST) -q -m "" tests/test_golden_run_traces.py tests/test_legacy_checkpoints.py \
		tests/test_vector_run_fixture.py tests/test_dict_fleet_run_fixture.py

## Robustness suite: checkpoint container round-trips, torn-write
## recovery, save->load->continue-training resume equivalence, refused
## loads (a scalar run's pending assignment and a rule fleet's controller
## state among them), pre-merge checkpoint formats, fault injection + degraded-mode
## behaviour, runner crash recovery, and the trace layout: float64
## array series from both run loops, stacked vector_run traces, and the
## per-node traces of a version-1 vector_run file.
test-robust:
	$(PYTEST) -q tests/test_ckpt_checkpoint.py tests/test_sim_faults.py \
		tests/test_resume_equivalence.py tests/test_checkpoint_refusals.py \
		tests/test_legacy_checkpoints.py tests/test_trace_layout.py \
		tests/test_vector_run_fixture.py

## One tiny end-to-end traced experiment; validates every emitted JSONL
## trace line against the repro.obs event schema and the run manifest.
trace-e2e:
	$(PYTEST) -q -m trace_e2e

## Fleet layer: vector-engine scalar equivalence (each node's state tree
## and trace events leaf for leaf), erlang_c_batch and the array
## bandwidth pressure pinned bit for bit to their scalar formulas, lazy
## step results, a faulted node's arrays, no per-node objects built, and the
## static fleet's hot path (no result built, rows written on the first
## tick only), the agent's raw-word exploration pinned draw for draw to
## the per-branch loop it replaced, the array violation penalty and
## fitted Equation-2 estimate pinned bit for bit to their scalar
## formulas, cluster traffic / balancer invariants, cluster environment
## + experiment, and the docs/fleet.md schema diff.
test-fleet:
	$(PYTEST) -q tests/test_engine_vector.py tests/test_engine_fleet_array.py \
		tests/test_rl_explore.py \
		tests/test_services_queueing.py tests/test_services_interference.py \
		tests/test_engine_lazy_results.py \
		tests/test_cluster_traffic.py tests/test_cluster_balancer.py \
		tests/test_cluster_environment.py tests/test_fleet_doc.py

## Hierarchical control: budget allocator + HierFleetTwig masking/reward
## shaping, provisioning transfer, degraded-node shedding, rule fleets
## (the PARTIES and Heracles array fleets against N one-node managers
## and their frozen scalar oracle, and resumed mid-run bit for bit),
## hier checkpoint resume bit-identity,
## and HierFleetTwig's array hooks against their dict-state oracle.
test-hier:
	$(PYTEST) -q tests/test_hier.py tests/test_cluster_balancer.py \
		tests/test_cluster_traffic.py tests/test_fleet_doc.py \
		tests/test_baselines_rule_fleets.py \
		tests/test_engine_fleet_array.py::TestHierOracle

## Control plane: RPC framing/correlation/timeouts, lifecycle state
## machine + registry sweeps, node agent round-trips, the coordinator
## E2E churn/rollout suite, and the docs/control_plane.md schema diff.
test-ctrl:
	$(PYTEST) -q tests/test_ctrl_rpc.py tests/test_ctrl_lifecycle.py \
		tests/test_ctrl_registry.py tests/test_ctrl_node_agent.py \
		tests/test_ctrl_e2e.py tests/test_ctrl_doc.py

## Schema/doc consistency: docs/observability.md vs the event registry,
## docs/fleet.md vs the cluster layer, docs/control_plane.md vs
## repro.ctrl.
docs-check:
	$(PYTEST) -q tests/test_obs_schema_doc.py tests/test_fleet_doc.py \
		tests/test_ctrl_doc.py

## Paper-artifact benchmarks at quick scale.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## Harness perf smoke: serial vs --jobs batch running, looped vs batched
## PER sampling on a one-stripe replay buffer, fused head-bank vs
## per-head-loop BDQ train_step/act at 1/2/4 agents, the fleet agent and
## vector rollout, cluster, learning-fleet, hier and rule-fleet ticks, and
## control-plane RPC throughput; each test overwrites its own entry in
## BENCH_perf_smoke.json.
bench-smoke:
	$(PYTEST) benchmarks/test_perf_smoke.py -q -s

## Profile the cluster hot path: cProfile over a 256-node fleet run,
## top 25 functions by cumulative time. Shows where a cluster tick goes
## (fused node step vs control plane vs agent train).
profile-cluster:
	PYTHONPATH=src $(PYTHON) -c "\
	import cProfile, pstats; \
	import numpy as np; \
	from repro.cluster.environment import ClusterEnvironment; \
	from repro.core.config import TwigConfig; \
	from repro.engine.fleet import FleetTwig; \
	from repro.engine.rollout import run_fleet; \
	from repro.services.profiles import get_profile; \
	services = ['masstree', 'xapian', 'moses', 'img-dnn']; \
	venv = ClusterEnvironment.from_services(services, num_nodes=256, seed=7, balancer='least_loaded'); \
	manager = FleetTwig([get_profile(s) for s in services], TwigConfig.fast(epsilon_mid_steps=20, epsilon_final_steps=40), np.random.default_rng(8), num_envs=256); \
	manager.index_tag = 'node'; \
	profiler = cProfile.Profile(); \
	profiler.enable(); \
	run_fleet(manager, venv, 30); \
	profiler.disable(); \
	pstats.Stats(profiler).sort_stats('cumulative').print_stats(25)"
