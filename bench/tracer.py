"""Outside-in span tracing for the benchmark.

Wrappers installed around public calls into the ``repro`` layers record
one span per call: name, start, end, parent span and tick id. Spans stay
in memory and are written out once, at exit. Nothing under ``src/`` is
changed; the wrappers replace class attributes in the episode process
only, and every episode is a fresh process.

Each measured tick is a root span (``loop.tick``) opened by the driving
loop, so the self times of one tick's spans add up to the tick: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Public calls timed in every traced episode: (module, class, attribute,
#: span name). Subclasses that do not override an attribute inherit the
#: wrapper (``FleetBDQAgent.train_step`` is ``BDQAgent.train_step``).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.cluster.traffic", "TrafficModel", "demand", "cluster.demand"),
    ("repro.cluster.balancer", "LoadBalancer", "assign", "cluster.assign"),
    ("repro.cluster.environment", "ClusterEnvironment", "step", "engine.step"),
    ("repro.engine.vector_env", "StepBatch", "_materialize", "engine.materialize"),
    ("repro.server.machine", "Machine", "apply", "server.apply"),
    ("repro.sim.environment", "ColocationEnvironment", "step", "sim.step"),
    ("repro.engine.fleet", "FleetTwig", "update_batch", "core.update"),
    ("repro.hier.baselines", "RuleFleet", "update_batch", "core.update"),
    ("repro.core.twig", "Twig", "update", "core.update"),
    ("repro.core.mapper", "Mapper", "map", "core.mapper"),
    ("repro.pmc.monitor", "MonitorBank", "observe_rows", "pmc.observe"),
    ("repro.pmc.monitor", "SystemMonitor", "observe", "pmc.observe"),
    ("repro.rl.agent", "BDQAgent", "act", "rl.act"),
    ("repro.engine.fleet", "FleetBDQAgent", "act_batch", "rl.act"),
    ("repro.rl.agent", "BDQAgent", "observe", "rl.observe"),
    ("repro.engine.fleet", "FleetBDQAgent", "observe_batch", "rl.observe"),
    ("repro.rl.agent", "BDQAgent", "train_step", "rl.train"),
)

#: RPC dispatchers of the control-plane servers; the span is named
#: ``ctrl.handler.<method>`` after the request's method.
DISPATCHERS: Tuple[Tuple[str, str], ...] = (
    ("repro.ctrl.coordinator", "Coordinator"),
    ("repro.ctrl.node_agent", "TwigNodeAgent"),
)

TICK = "loop.tick"

# Span record layout (lists, so the end time can be filled in place).
NAME, START, END, PARENT, TICK_ID = range(5)


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tick = -1
        self._open_tick: Optional[int] = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, start: Optional[float] = None) -> int:
        stack = self._stack()
        span = [name, perf_counter() if start is None else start, 0.0,
                stack[-1] if stack else -1, self.tick]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, end: Optional[float] = None) -> None:
        self.spans[index][END] = perf_counter() if end is None else end
        self._stack().pop()

    def next_tick(self, now: float) -> None:
        """Close the open tick span at ``now`` and open the next one."""
        self.close_tick(now)
        self.tick += 1
        self._open_tick = self.begin(TICK, start=now)

    def close_tick(self, now: float) -> None:
        if self._open_tick is not None:
            self.end(self._open_tick, end=now)
            self._open_tick = None

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_dispatch(self, fn):
        def traced(server, method, params):
            index = self.begin(f"ctrl.handler.{method}")
            try:
                return fn(server, method, params)
            finally:
                self.end(index)

        return traced

    def install(self, dispatchers: bool = False) -> None:
        """Replace every target attribute with its span-recording wrapper."""
        for module, cls_name, attr, name in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(cls.__dict__[attr], name))
        if dispatchers:
            for module, cls_name in DISPATCHERS:
                cls = getattr(importlib.import_module(module), cls_name)
                cls._dispatch = self.wrap_dispatch(cls.__dict__["_dispatch"])


def write_spans(path, spans: Sequence[list]) -> None:
    """Write spans as JSON lines (name, start, end, parent, tick)."""
    with open(path, "w") as handle:
        for name, start, end, parent, tick in spans:
            handle.write(json.dumps(
                {"name": name, "start": start, "end": end,
                 "parent": parent, "tick": tick}, separators=(",", ":")
            ) + "\n")


def read_spans(path) -> List[list]:
    with open(path) as handle:
        return [
            [s["name"], s["start"], s["end"], s["parent"], s["tick"]]
            for s in map(json.loads, handle)
        ]


def graft(client: List[list], server: Sequence[list]) -> List[list]:
    """Attach a server process's spans under the client spans enclosing them.

    Both processes read the same monotonic clock, and the load generator
    has one request in flight at a time, so each server root span lies
    inside exactly one client RPC span. Server spans that no client span
    encloses (calls made outside the measured loop) get tick -1.
    """
    offset = len(client)
    rpcs = sorted(
        (s[START], s[END], i) for i, s in enumerate(client)
        if s[NAME].startswith("ctrl.rpc.")
    )
    merged = list(client)
    cursor = 0
    for span in server:
        name, start, end, parent, _ = span
        if parent >= 0:
            tick = merged[parent + offset][TICK_ID]
            merged.append([name, start, end, parent + offset, tick])
            continue
        while cursor < len(rpcs) and rpcs[cursor][1] < start:
            cursor += 1
        if cursor < len(rpcs) and rpcs[cursor][0] <= start and end <= rpcs[cursor][1]:
            host = rpcs[cursor][2]
            merged.append([name, start, end, host, client[host][TICK_ID]])
        else:
            merged.append([name, start, end, -1, -1])
    return merged


def self_times(spans: Sequence[list], first_tick: int) -> Dict[str, object]:
    """Per-name self/total time and call counts over measured ticks.

    Returns ``ticks`` (count), ``tick_s`` (summed tick durations),
    ``self_s``/``total_s``/``calls`` dicts keyed by span name, ``gap``
    (relative difference between the summed positive self times and the
    summed ticks) and ``escaped`` (spans that start before or end after
    their parent).
    """
    durations = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    escaped = 0
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            children[parent] += durations[i]
            host = spans[parent]
            if span[START] < host[START] or span[END] > host[END]:
                escaped += 1
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    tick_s = 0.0
    ticks = 0
    positive = 0.0
    for i, span in enumerate(spans):
        if span[TICK_ID] < first_tick:
            continue
        own = durations[i] - children[i]
        self_s[span[NAME]] += own
        total_s[span[NAME]] += durations[i]
        calls[span[NAME]] += 1
        positive += max(own, 0.0)
        if span[NAME] == TICK:
            tick_s += durations[i]
            ticks += 1
    gap = abs(positive - tick_s) / tick_s if tick_s > 0 else 1.0
    return {
        "ticks": ticks,
        "tick_s": tick_s,
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "calls": dict(calls),
        "gap": gap,
        "escaped": escaped,
    }


def layer_metrics(times: Dict[str, object], sim_nodes: int) -> Dict[str, float]:
    """The benchmark's per-layer metrics from :func:`self_times` output.

    ``*_ms`` values are milliseconds per tick of the span's self time,
    except ``core.update_ms``, ``rl.train_ms`` and ``loop.tick_ms``, which
    are totals, and the ``ctrl.*`` values, which are per call. Layers a
    workload does not exercise read 0.
    """
    ticks = max(int(times["ticks"]), 1)
    self_s, total_s, calls = times["self_s"], times["total_s"], times["calls"]

    def own(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / ticks

    def total(name: str) -> float:
        return 1000.0 * total_s.get(name, 0.0) / ticks

    def per_tick(name: str) -> float:
        return calls.get(name, 0) / ticks

    metrics = {
        "loop.tick_ms": total(TICK),
        "engine.record_ms": own(TICK),
        "engine.physics_ms": own("engine.step"),
        "engine.materialize_ms": own("engine.materialize"),
        "engine.results_built_per_tick": per_tick("engine.materialize"),
        "cluster.demand_ms": own("cluster.demand"),
        "cluster.assign_ms": own("cluster.assign"),
        "server.apply_ms": own("server.apply"),
        "server.apply_calls_per_tick": per_tick("server.apply"),
        "server.install_skip_ratio": 1.0 - per_tick("server.apply") / sim_nodes,
        "core.update_ms": total("core.update"),
        "core.update_self_ms": own("core.update"),
        "core.mapper_ms": own("core.mapper"),
        "core.mapper_calls_per_tick": per_tick("core.mapper"),
        "core.placement_hit_ratio": 1.0 - per_tick("core.mapper") / sim_nodes,
        "pmc.observe_ms": own("pmc.observe"),
        "rl.act_ms": own("rl.act"),
        "rl.observe_self_ms": own("rl.observe"),
        "rl.train_ms": total("rl.train"),
        "rl.train_calls_per_tick": per_tick("rl.train"),
        "sim.step_ms": own("sim.step"),
    }
    for method, short in (("allocate", "allocate"), ("report_interval", "report"),
                          ("heartbeat", "heartbeat")):
        n = calls.get(f"ctrl.rpc.{method}", 0)
        handler = total_s.get(f"ctrl.handler.{method}", 0.0)
        round_trip = total_s.get(f"ctrl.rpc.{method}", 0.0)
        metrics[f"ctrl.{short}_handler_ms"] = 1000.0 * handler / n if n else 0.0
        metrics[f"ctrl.{short}_wire_ms"] = (
            1000.0 * (round_trip - handler) / n if n else 0.0
        )
    return metrics
