"""One benchmark episode: build a workload, run it, check it, report JSON.

``bench/run.py`` starts every episode as a fresh process::

    PYTHONPATH=src python bench/episode.py --workload fleet_learn --seed 7 [--trace] [--quick]

The last line of standard output is one JSON object: set-up CPU and
wall time, the CPU and wall duration of every measured tick (and, for
ctrl_serve, the wall duration of every RPC),
peak RSS, the simulated QoS guarantee and energy, a sha256 digest of the
recorded run trace, the number of operations attempted and failed, and,
for a traced episode, the per-layer table.

All workloads are closed loops: the next tick (or RPC round) starts when
the previous one returns. The first ``WARMUP`` ticks are set-up, not
measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from tracer import Tracer, graft, layer_metrics, read_spans, self_times, write_spans

#: Set-up time counts from here: the program's own imports, building and
#: warm-up count; interpreter start-up and the numpy import, which vary by
#: tens of milliseconds from run to run, do not.
STARTED = time.perf_counter()
STARTED_CPU = time.process_time()

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SERVICES = ("masstree", "xapian", "moses", "img-dnn")
#: The fleet and ctrl_serve traffic is a preset with its curves scaled by
#: this factor. At the presets' own level, each of four colocated services
#: at half its maximum load, a learning fleet met QoS on no sample of the
#: final third of the run; at 0.3 it met it on about half (bench/README.md,
#: *Operating point*), so the controller's choices matter.
TRAFFIC_SCALE = 0.3
WARMUP = 10
VIRTUAL_NODES = 8
#: The ctrl_serve load generator: one thread driving two connections.
LOAD_THREADS = 1
LOAD_CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """``nodes`` simulated nodes stepped per tick for ``ticks`` measured ticks."""

    nodes: int
    ticks: int
    quick_nodes: int
    quick_ticks: int


#: Episodes are short so that a run can repeat each tick many times: on a
#: shared host that switches between a fast and a slow state every second
#: or so, the per-tick minimum needs several repeats to find the fast one.
WORKLOADS: Dict[str, Workload] = {
    "fleet_learn": Workload(nodes=256, ticks=30, quick_nodes=16, quick_ticks=20),
    "fleet_static": Workload(nodes=512, ticks=30, quick_nodes=32, quick_ticks=20),
    # The first 410 intervals of the HarnessConfig.quick Twig schedule.
    "twig_c": Workload(nodes=1, ticks=400, quick_nodes=1, quick_ticks=60),
    "ctrl_serve": Workload(nodes=1, ticks=150, quick_nodes=1, quick_ticks=40),
}


class Checks:
    """Failed operations, keyed so one operation counts once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Set[object] = set()
        self.errors: List[str] = []

    def fail(self, op: object, message: str) -> None:
        self.failed.add(op)
        if len(self.errors) < 5:
            self.errors.append(message)


class TickClock:
    """Wall and CPU time at the start of every tick; with a tracer, also
    the tick root spans.

    CPU time is that of this process plus every process added with
    :meth:`add_process` (the ctrl_serve server). On a shared host it is the
    steadier measure of a tick's work: time the host takes the CPU away
    counts in wall time but not in CPU time.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.starts: List[float] = []
        self.cpu_starts: List[float] = []
        self.end = 0.0
        self.cpu_end = 0.0
        self.cpu_clocks = [time.CLOCK_PROCESS_CPUTIME_ID]

    @property
    def tick(self) -> int:
        return len(self.starts) - 1

    def add_process(self, pid: int) -> None:
        """Count another process's CPU time too: Linux's process-wide CPU
        clock of ``pid``, as ``clock_getcpuclockid`` would return it."""
        self.cpu_clocks.append(((~pid) << 3) | 2)

    def cpu(self) -> float:
        return sum(time.clock_gettime(clock) for clock in self.cpu_clocks)

    def mark(self) -> None:
        now, cpu = time.perf_counter(), self.cpu()
        if self.tracer is not None:
            self.tracer.next_tick(now)
        self.starts.append(now)
        self.cpu_starts.append(cpu)

    def stop(self) -> None:
        self.end, self.cpu_end = time.perf_counter(), self.cpu()
        if self.tracer is not None:
            self.tracer.close_tick(self.end)

    def attach(self, env) -> None:
        """Mark a tick whenever the run loop steps ``env``."""
        step = env.step

        def clocked(assignments):
            self.mark()
            return step(assignments)

        env.step = clocked

    def durations_ms(self) -> np.ndarray:
        bounds = np.asarray(self.starts[WARMUP:] + [self.end])
        return np.diff(bounds) * 1000.0

    def cpu_durations_ms(self) -> np.ndarray:
        bounds = np.asarray(self.cpu_starts[WARMUP:] + [self.cpu_end])
        return np.diff(bounds) * 1000.0


def conservation_error(rates, demand, topology) -> Optional[str]:
    """Whether each region's node rates sum to its demand (1e-9 relative)."""
    rates = np.asarray(rates, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    for r in range(topology.num_regions):
        got = rates[topology.region_nodes(r)].sum(axis=0)
        if not np.allclose(got, demand[r], rtol=1e-9, atol=0.0):
            return f"region {r}: assigned {got.tolist()} for demand {demand[r].tolist()}"
    return None


def trace_digest(traces) -> str:
    """sha256 over every recorded series of every run trace, in order."""
    digest = hashlib.sha256()
    for trace in traces:
        for series in trace.services.values():
            for values in (series.p99_ms, series.arrival_rps, series.cores,
                           series.frequency_ghz):
                digest.update(np.asarray(values, dtype=np.float64).tobytes())
        for values in (trace.power_w, trace.true_power_w, trace.membw_utilization):
            digest.update(np.asarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def check_traces(traces, checks: Checks) -> None:
    """p99 and power must be finite on every node (no faults are injected)."""
    for e, trace in enumerate(traces):
        p99 = np.array([s.p99_ms for s in trace.services.values()])
        power = np.array([trace.power_w, trace.true_power_w])
        bad = ~np.isfinite(p99).all(axis=0) | ~np.isfinite(power).all(axis=0)
        for t in np.nonzero(bad)[0].tolist():
            checks.fail(("tick", t), f"node {e} tick {t}: non-finite p99 or power")


def sim_stats(traces) -> Dict[str, float]:
    """Simulated outcome: the share of node x service x interval samples
    whose p99 meets its QoS target over the final third of the run, and
    the energy of the whole run."""
    window = max(traces[0].steps() // 3, 1)
    met = samples = 0
    for trace in traces:
        for series in trace.services.values():
            p99 = np.asarray(series.p99_ms[-window:])
            met += int((p99 <= series.qos_target_ms).sum())
            samples += p99.size
    return {
        "qos_guarantee": met / samples,
        "energy_kj": sum(trace.energy_j() for trace in traces) / 1000.0,
    }


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
def traffic_spec(preset: str):
    """The named traffic preset for ``SERVICES``, scaled by ``TRAFFIC_SCALE``."""
    from repro.cluster.traffic import make_traffic_spec

    spec = make_traffic_spec(preset, SERVICES)
    curves = tuple(
        replace(s, base_fraction=TRAFFIC_SCALE * s.base_fraction,
                diurnal_amplitude=TRAFFIC_SCALE * s.diurnal_amplitude)
        for s in spec.services
    )
    return replace(spec, services=curves)


def run_fleet(name: str, nodes: int, steps: int, seed: int, clock: TickClock,
              checks: Checks):
    from repro.cluster.environment import ClusterEnvironment
    from repro.core.config import TwigConfig
    from repro.engine.fleet import FleetTwig
    from repro.engine.rollout import run_fleet as drive
    from repro.hier.baselines import make_rule_fleet
    from repro.services.profiles import get_profile

    if name == "fleet_learn":
        venv = ClusterEnvironment.from_services(
            SERVICES, nodes, seed, traffic=traffic_spec("diurnal"),
            balancer="least_loaded",
        )
        config = TwigConfig.fast(
            epsilon_mid_steps=int(0.4 * steps), epsilon_final_steps=int(0.8 * steps)
        )
        manager = FleetTwig(
            [get_profile(s) for s in SERVICES], config,
            np.random.default_rng(seed + 1), num_envs=nodes,
        )
        manager.index_tag = "node"
    else:
        # The flash_crowd preset, with its crowd moved inside this run.
        spec = traffic_spec("flash_crowd")
        crowd = replace(spec.flash_crowds[0], start=steps // 2, duration=steps // 3)
        venv = ClusterEnvironment.from_services(
            SERVICES, nodes, seed, traffic=replace(spec, flash_crowds=(crowd,)),
            balancer="power_of_two",
        )
        manager = make_rule_fleet("static", SERVICES, nodes, seed)

    assign = venv.balancer.assign
    topology = venv.topology

    def checked_assign(t, demand, loads=None):
        rates = assign(t, demand, loads)
        error = conservation_error(rates, demand, topology)
        if error is not None:
            checks.fail(("tick", t), f"tick {t}: {error}")
        return rates

    venv.balancer.assign = checked_assign
    clock.attach(venv)
    traces = drive(manager, venv, steps)
    clock.stop()
    checks.attempted += steps
    return traces


def run_twig_c(steps: int, seed: int, clock: TickClock, checks: Checks):
    from repro.experiments.common import HarnessConfig, build_twig, make_environment
    from repro.experiments.runner import run_manager
    from repro.services.profiles import get_profile

    services = ["masstree", "xapian"]
    harness = replace(HarnessConfig.quick(), seed=seed)
    twig = build_twig([get_profile(s) for s in services], harness, seed_offset=seed)
    env = make_environment(services, [0.3, 0.3], harness.seed)
    clock.attach(env)
    trace = run_manager(twig, env, steps)
    clock.stop()
    checks.attempted += steps
    return [trace]


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def run_ctrl(steps: int, seed: int, clock: TickClock, checks: Checks,
             tracer: Optional[Tracer], rpc_ms: Dict[str, List[float]], cpus: int):
    from repro.cluster.environment import TRAFFIC_SEED_OFFSET, make_cluster_node
    from repro.cluster.topology import ClusterTopology
    from repro.cluster.traffic import TrafficModel
    from repro.ctrl.node_agent import step_result_to_wire, wire_to_assignments
    from repro.ctrl.rpc import RpcClient
    from repro.experiments.runner import RunTrace, ServiceTrace

    if max(LOAD_THREADS, LOAD_CONNECTIONS) > cpus:
        raise RuntimeError(
            f"load generator needs {LOAD_THREADS} thread(s) and {LOAD_CONNECTIONS} "
            f"connections but only {cpus} CPU(s) are available"
        )

    @contextmanager
    def rpc(method: str):
        """Time one round trip; a raised error counts the call as failed."""
        checks.attempted += 1
        tick = clock.tick
        index = tracer.begin(f"ctrl.rpc.{method}") if tracer is not None else None
        start = time.perf_counter()
        try:
            yield
        except Exception:
            checks.fail(("rpc", checks.attempted), f"tick {tick}: {method} failed")
            raise
        finally:
            elapsed = time.perf_counter() - start
            if index is not None:
                tracer.end(index)
        if tick >= WARMUP:
            rpc_ms[method].append(1000.0 * elapsed)

    server_spans = OUT / "spans-ctrl_server.jsonl"
    command = [sys.executable, str(HERE / "ctrl_server.py"), "--seed", str(seed),
               "--rounds", str(steps), "--services", ",".join(SERVICES)]
    if tracer is not None:
        command += ["--spans", str(server_spans)]
    server = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True)
    clock.add_process(server.pid)
    clients: List[RpcClient] = []
    try:
        line = server.stdout.readline()
        if not line:
            raise RuntimeError("ctrl server exited before it was ready")
        addresses = json.loads(line)
        coordinator = RpcClient(addresses["coordinator"], timeout_s=30.0)
        clients.append(coordinator)
        agent = RpcClient(addresses["agent"], timeout_s=30.0)
        clients.append(agent)

        vnodes = [f"vnode{i}" for i in range(VIRTUAL_NODES)]
        epochs = {}
        for node in vnodes:
            with rpc("register"):
                epochs[node] = coordinator.call("register", {
                    "node_id": node, "address": addresses["agent"],
                    "services": list(SERVICES),
                })["epoch"]
        topology = ClusterTopology(VIRTUAL_NODES)
        traffic = TrafficModel(
            traffic_spec("diurnal"), topology,
            np.random.default_rng(seed + TRAFFIC_SEED_OFFSET),
        )
        env = make_cluster_node(SERVICES, seed)
        trace = RunTrace(
            manager_name="twig-ctrl",
            services={s: ServiceTrace(qos_target_ms=env.qos_target_of(s)) for s in SERVICES},
            interval_s=env.config.interval_s,
        )
        with rpc("allocate_node"):
            assignments = wire_to_assignments(agent.call("allocate")["assignments"])
        loads: Dict[str, Dict[str, Dict[str, float]]] = {node: {} for node in vnodes}

        for t in range(steps):
            clock.mark()
            for node in vnodes:
                with rpc("heartbeat"):
                    coordinator.call("heartbeat", {
                        "node_id": node, "epoch": epochs[node],
                        "loads": loads[node], "policy_version": 0,
                    })
            demand = traffic.demand(t)
            with rpc("allocate"):
                nodes = coordinator.call("allocate", {
                    "demand": {s: float(demand[0, j]) for j, s in enumerate(SERVICES)}
                })["nodes"]
            if sorted(nodes) != sorted(vnodes):
                checks.fail(("round", t), f"round {t}: allocate covered {sorted(nodes)}")
            rates = [[nodes.get(node, {}).get(s, 0.0) for s in SERVICES] for node in vnodes]
            error = conservation_error(rates, demand, topology)
            if error is not None:
                checks.fail(("round", t), f"round {t}: {error}")
            for s in SERVICES:
                env.load_generators[s].set_rate(nodes["vnode0"][s])
            result = env.step(assignments)
            for s in SERVICES:
                observation = result.observations[s]
                series = trace.services[s]
                series.p99_ms.append(observation.p99_ms)
                series.arrival_rps.append(observation.interval.arrival_rate)
                series.cores.append(observation.interval.cores)
                series.frequency_ghz.append(observation.interval.frequency_ghz)
            trace.power_w.append(result.socket_power_w)
            trace.true_power_w.append(result.true_power_w)
            trace.membw_utilization.append(result.membw_utilization)
            with rpc("report_interval"):
                reply = agent.call("report_interval", {"result": step_result_to_wire(result)})
                assignments = wire_to_assignments(reply["assignments"])
            if sorted(assignments) != sorted(SERVICES):
                checks.fail(("round", t), f"round {t}: report assigned {sorted(assignments)}")
            for node in vnodes:
                loads[node] = {
                    s: {
                        "arrival_rps": nodes[node][s],
                        "utilization": result.observations[s].interval.utilization,
                        "backlog": result.observations[s].interval.backlog,
                    }
                    for s in SERVICES
                }
        clock.stop()
    finally:
        for client in clients:
            client.close()
        server.stdin.close()
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
    if server.returncode != 0:
        checks.fail(("server",), f"ctrl server exited with {server.returncode}")
    if tracer is not None:
        tracer.spans[:] = graft(tracer.spans, read_spans(server_spans))
        server_spans.unlink()
    return [trace]


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def run_episode(name: str, seed: int, traced: bool, quick: bool,
                cpus: int) -> Dict[str, object]:
    workload = WORKLOADS[name]
    nodes = workload.quick_nodes if quick else workload.nodes
    steps = WARMUP + (workload.quick_ticks if quick else workload.ticks)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    clock = TickClock(tracer)
    checks = Checks()
    rpc_ms: Dict[str, List[float]] = {
        "heartbeat": [], "allocate": [], "report_interval": [],
    }
    report: Dict[str, object] = {"workload": name, "seed": seed, "traced": traced}
    try:
        if name in ("fleet_learn", "fleet_static"):
            traces = run_fleet(name, nodes, steps, seed, clock, checks)
        elif name == "twig_c":
            traces = run_twig_c(steps, seed, clock, checks)
        else:
            traces = run_ctrl(steps, seed, clock, checks, tracer, rpc_ms, cpus)
    except Exception as exc:  # reported, not raised: the parent counts it
        checks.fail(("episode",), f"{type(exc).__name__}: {exc}")
        report.update(attempted=max(checks.attempted, 1), failed=len(checks.failed),
                      errors=checks.errors)
        return report
    check_traces(traces, checks)
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report.update(
        setup_s=clock.cpu_starts[WARMUP] - STARTED_CPU,
        setup_wall_s=clock.starts[WARMUP] - STARTED,
        tick_ms=clock.durations_ms().tolist(),
        tick_cpu_ms=clock.cpu_durations_ms().tolist(),
        peak_rss_mb=kib / 1024.0,
        digest=trace_digest(traces),
        attempted=checks.attempted,
        failed=len(checks.failed),
        errors=checks.errors,
        rpc_ms=rpc_ms,
        **sim_stats(traces),
    )
    if tracer is not None:
        times = self_times(tracer.spans, first_tick=WARMUP)
        report["layers"] = layer_metrics(times, sim_nodes=nodes)
        ticks = max(times["ticks"], 1)
        report["self_ms"] = {
            span: [1000.0 * seconds / ticks, times["calls"][span] / ticks]
            for span, seconds in sorted(times["self_s"].items())
        }
        report["self_gap"] = times["gap"]
        report["escaped_spans"] = times["escaped"]
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{name}.jsonl", tracer.spans)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    cpus = os.sched_getaffinity(0)
    # One CPU per episode (inherited by the ctrl_serve server): client and
    # server then hand off on one core, and no tick waits for a wake-up on
    # another CPU, which made ctrl_serve rounds slower and 3-5x noisier.
    os.sched_setaffinity(0, {min(cpus)})
    report = run_episode(args.workload, args.seed, args.trace, args.quick, len(cpus))
    print(json.dumps(report), flush=True)
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
