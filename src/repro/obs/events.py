"""Trace event schema: versioned record types and validation.

Every record a :class:`repro.obs.sink.TraceSink` carries is a flat JSON
object with three envelope fields — ``ev`` (event type), ``v`` (schema
version) and ``t`` (the control-interval index, ``-1`` when the event is
not tied to an interval) — plus the per-type payload fields declared in
:data:`EVENT_REGISTRY`. The registry is the single source of truth: the
emitters build events through :func:`make_event`, the validator checks
arbitrary JSONL lines against it, and ``docs/observability.md`` documents
it (a test diffs the doc's schema table against this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Bump when an event type gains/loses/retypes a field.
SCHEMA_VERSION = 1

#: Envelope fields present on every event.
ENVELOPE_FIELDS: Dict[str, str] = {"ev": "str", "v": "int", "t": "int"}

#: Optional envelope fields, present only when the emitter supplies them.
#: ``env`` is the environment index of a vectorized (multi-env) run, so
#: ``repro trace report`` can attribute each interval to its environment;
#: scalar runs omit it. ``node`` is the node index of a cluster run
#: (``repro.cluster``): the same vectorized machinery tags each per-node
#: event with the node that produced it instead of ``env``.
OPTIONAL_ENVELOPE_FIELDS: Dict[str, str] = {"env": "int", "node": "int"}

_TYPE_CHECKS = {
    "str": lambda x: isinstance(x, str),
    "int": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "float": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "bool": lambda x: isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "list": lambda x: isinstance(x, list),
}


@dataclass(frozen=True)
class FieldSpec:
    """One payload field of an event type."""

    name: str
    type: str                      # one of _TYPE_CHECKS
    description: str

    def __post_init__(self) -> None:
        if self.type not in _TYPE_CHECKS:
            raise ConfigurationError(f"unknown field type {self.type!r}")


@dataclass(frozen=True)
class EventSpec:
    """Schema for one event type."""

    name: str
    emitter: str                   # module that emits it (documentation)
    description: str
    fields: Tuple[FieldSpec, ...]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)


def _spec(name: str, emitter: str, description: str, *fields) -> EventSpec:
    return EventSpec(name, emitter, description, tuple(FieldSpec(*f) for f in fields))


#: Every event type the reproduction emits. Keep docs/observability.md in
#: sync — test_obs_schema_doc.py diffs the two.
EVENT_REGISTRY: Dict[str, EventSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "run_start", "repro.experiments.runner",
            "Emitted once before the first control interval of a run.",
            ("manager", "str", "Task-manager name (twig-s, twig-c, hipster, ...)"),
            ("services", "list", "Names of the colocated LC services"),
            ("steps", "int", "Planned number of control intervals"),
            ("interval_s", "float", "Control-interval length in seconds"),
        ),
        _spec(
            "interval", "repro.sim.environment",
            "One environment control interval: per-service observations plus "
            "socket power and energy.",
            ("services", "object", "Per-service map: p99_ms, qos_target_ms, "
                                   "qos_met, arrival_rps, cores, frequency_ghz"),
            ("power_w", "float", "Noisy RAPL reading for the server socket"),
            ("true_power_w", "float", "Ground-truth socket power"),
            ("membw_utilization", "float", "Socket memory-bandwidth utilisation [0, 1+]"),
            ("energy_j", "float", "Cumulative server-socket energy"),
        ),
        _spec(
            "qos_violation", "repro.sim.environment",
            "A service missed its p99 target this interval.",
            ("service", "str", "Violating service name"),
            ("p99_ms", "float", "Measured tail latency"),
            ("qos_target_ms", "float", "The service's p99 target"),
            ("tardiness", "float", "p99_ms / qos_target_ms (> 1)"),
            ("consecutive", "int", "Length of the current violation streak"),
        ),
        _spec(
            "action", "repro.core.fleet",
            "The allocation Twig chose for one service for the next interval.",
            ("service", "str", "Service the allocation applies to"),
            ("cores", "int", "Requested core count"),
            ("freq_index", "int", "Index into the DVFS ladder"),
            ("frequency_ghz", "float", "Requested core frequency"),
            ("llc_ways", "int", "Intel-CAT way quota (0 = unpartitioned)"),
            ("epsilon", "float", "Exploration rate in force when acting"),
        ),
        _spec(
            "reward", "repro.core.fleet",
            "Equation-1 reward decomposition for one service.",
            ("service", "str", "Service the reward belongs to"),
            ("reward", "float", "Total Equation-1 reward"),
            ("qos_rew", "float", "measured p99 / target (QoS term)"),
            ("power_rew", "float", "max power / estimated power (0 on violation)"),
            ("violation", "bool", "Whether the penalty branch applied"),
            ("measured_qos_ms", "float", "Measured p99 latency"),
            ("estimated_power_w", "float", "Equation-2 per-service power estimate"),
        ),
        _spec(
            "train_step", "repro.rl.agent",
            "One minibatch gradient step of the BDQ agent.",
            ("step", "int", "Agent environment-step count"),
            ("train_count", "int", "Gradient steps taken so far"),
            ("loss", "float", "Per-branch-averaged MSE loss"),
            ("epsilon", "float", "Current exploration rate"),
            ("beta", "float", "PER importance-sampling exponent (1.0 if uniform)"),
            ("buffer_size", "int", "Replay-buffer occupancy"),
            ("mean_td_error", "float", "Mean absolute TD-error of the minibatch"),
        ),
        _spec(
            "fault", "repro.sim.environment",
            "An injected fault was active for a service this interval.",
            ("service", "str", "Service the fault applies to"),
            ("kind", "str", "Fault kind (pmc_dropout, pmc_nan, latency_spike, "
                            "service_crash)"),
            ("magnitude", "float", "Kind-specific severity knob"),
            ("start", "int", "First interval the fault is active"),
            ("duration", "int", "Number of intervals the fault stays active"),
        ),
        _spec(
            "degraded", "repro.core.fleet",
            "Twig held its last allocation because telemetry for at least one "
            "service was unusable (non-finite PMCs or latency).",
            ("services", "list", "Services with unusable telemetry"),
            ("held_allocation", "bool", "Whether the previous allocation was re-applied"),
        ),
        _spec(
            "run_end", "repro.experiments.runner",
            "Emitted after the last control interval of a run.",
            ("steps", "int", "Control intervals actually executed"),
            ("wall_time_s", "float", "Wall-clock duration of the run loop"),
        ),
        _spec(
            "cluster_interval", "repro.cluster.environment",
            "One cluster control interval: fleet-wide QoS, traffic and "
            "energy aggregates over every node of a cluster run.",
            ("nodes", "int", "Number of nodes in the cluster"),
            ("services", "object", "Per-service map: offered_rps, served_rps, "
                                   "qos_nodes, worst_p99_ms, mean_p99_ms"),
            ("qos_guarantee", "float", "Fraction of (node, service) pairs meeting "
                                       "QoS this interval"),
            ("power_w", "float", "Summed noisy RAPL readings across all nodes"),
            ("true_power_w", "float", "Summed ground-truth node power"),
            ("energy_j", "float", "Cumulative cluster-wide energy"),
        ),
        _spec(
            "budget_assign", "repro.hier.manager",
            "The fleet budget allocator assigned per-node power budgets "
            "for the next budget window.",
            ("level", "float", "Chosen budget ladder level (fraction of node "
                               "max power)"),
            ("tilt", "float", "Chosen slack-tilt strength shifting watts "
                              "toward violating nodes"),
            ("mean_budget_w", "float", "Mean per-node budget in watts"),
            ("min_budget_w", "float", "Smallest per-node budget in watts"),
            ("max_budget_w", "float", "Largest per-node budget in watts"),
            ("period", "int", "Control intervals until the next assignment"),
            ("reward", "float", "Allocator reward for the window just ended "
                                "(0 on the first assignment)"),
        ),
        _spec(
            "node_registered", "repro.ctrl.registry",
            "A node agent (re-)registered with the coordinator and was "
            "granted a registration epoch.",
            ("node_id", "str", "Stable node identifier chosen by the agent"),
            ("address", "str", "RPC address the agent serves on"),
            ("services", "list", "Services the node's Twig instance manages"),
            ("epoch", "int", "Registration epoch granted (bumps on re-register)"),
        ),
        _spec(
            "heartbeat_missed", "repro.ctrl.registry",
            "A node's heartbeat deadline passed without a liveness report.",
            ("node_id", "str", "Node whose deadline expired"),
            ("epoch", "int", "Registration epoch of the silent node"),
            ("missed", "int", "Consecutive deadlines missed so far"),
            ("state", "str", "Lifecycle state after accounting for the miss"),
        ),
        _spec(
            "node_state_change", "repro.ctrl.registry",
            "A node moved between lifecycle states "
            "(registered/healthy/degraded/offline/deregistered).",
            ("node_id", "str", "Node that transitioned"),
            ("epoch", "int", "Registration epoch the transition applies to"),
            ("from_state", "str", "State before the transition"),
            ("to_state", "str", "State after the transition"),
            ("version", "int", "Registry version after the transition"),
            ("reason", "str", "What drove it (register, heartbeat, "
                              "deadline, deregister)"),
        ),
        _spec(
            "policy_rollout", "repro.ctrl.coordinator",
            "The coordinator rolled a checkpointed policy onto the fleet's "
            "healthy nodes.",
            ("version", "int", "Policy version the rollout installed"),
            ("source", "str", "Checkpoint path the policy came from"),
            ("updated", "int", "Nodes that confirmed the new version"),
            ("failed", "int", "Nodes that refused or could not be reached"),
            ("nodes", "list", "Node ids that confirmed the new version"),
        ),
        _spec(
            "node_provisioned", "repro.hier.provision",
            "A freshly provisioned fleet received transferred leaf-policy "
            "weights from a checkpoint (trunk kept, heads re-randomized).",
            ("source", "str", "Checkpoint path the weights came from"),
            ("services", "list", "Services covered by the transferred policy"),
            ("restart_epsilon_at", "int", "Agent step the epsilon/beta "
                                          "schedules rewound to"),
        ),
    )
}


def make_event(
    ev: str,
    t: int,
    *,
    env: Optional[int] = None,
    node: Optional[int] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """Build a registry-conformant event dict (envelope + payload).

    ``env`` and ``node`` are the optional index envelope fields: vector
    runs pass the emitting environment's index as ``env``, cluster runs
    pass the emitting node's index as ``node``, so downstream tooling can
    attribute events per environment / per node.
    """
    event: Dict[str, Any] = {"ev": ev, "v": SCHEMA_VERSION, "t": t}
    if env is not None:
        event["env"] = int(env)
    if node is not None:
        event["node"] = int(node)
    event.update(fields)
    return event


def validate_event(event: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``event`` matches the schema."""
    for name, type_name in ENVELOPE_FIELDS.items():
        if name not in event:
            raise ConfigurationError(f"event missing envelope field {name!r}: {event}")
        if not _TYPE_CHECKS[type_name](event[name]):
            raise ConfigurationError(f"envelope field {name!r} is not {type_name}: {event}")
    for name, type_name in OPTIONAL_ENVELOPE_FIELDS.items():
        if name in event and not _TYPE_CHECKS[type_name](event[name]):
            raise ConfigurationError(f"envelope field {name!r} is not {type_name}: {event}")
    if event["v"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"event schema version {event['v']} != supported {SCHEMA_VERSION}"
        )
    spec = EVENT_REGISTRY.get(event["ev"])
    if spec is None:
        raise ConfigurationError(
            f"unknown event type {event['ev']!r}; known: {sorted(EVENT_REGISTRY)}"
        )
    payload = {
        k for k in event if k not in ENVELOPE_FIELDS and k not in OPTIONAL_ENVELOPE_FIELDS
    }
    declared = set(spec.field_names())
    missing = declared - payload
    if missing:
        raise ConfigurationError(f"{spec.name} event missing fields {sorted(missing)}")
    unknown = payload - declared
    if unknown:
        raise ConfigurationError(f"{spec.name} event has undeclared fields {sorted(unknown)}")
    for field in spec.fields:
        if not _TYPE_CHECKS[field.type](event[field.name]):
            raise ConfigurationError(
                f"{spec.name}.{field.name} is not {field.type}: {event[field.name]!r}"
            )
