"""Per-node Twig agent: a :class:`~repro.core.twig.Twig` behind an RPC server.

A :class:`TwigNodeAgent` owns one Twig instance and exposes it to the
control plane over newline-delimited JSON-RPC (:mod:`repro.ctrl.rpc`):

``allocate``
    The serving hot path — return the current per-service core
    assignments without touching the learner. This is what an
    orchestration layer polls at high request rates, so it is a
    lock-protected dictionary read, never a policy evaluation.
``report_interval``
    Feed one control interval's telemetry (a wire-encoded
    :class:`~repro.sim.node.StepResult`) through ``Twig.update``
    and return the refreshed assignments. Degraded telemetry (NaN PMCs
    or latency from a faulted node) takes Twig's existing hold-last-
    allocation path — the wire format deliberately round-trips NaN.
``update_policy``
    Install a checkpoint from :mod:`repro.ckpt`. The handshake is
    versioned: a rollout carries a policy version, and the agent refuses
    versions that do not advance (:class:`~repro.errors.ControlPlaneError`)
    as well as torn or incompatible checkpoints
    (:class:`~repro.errors.CheckpointError`, raised by the staged load
    before any state is mutated) — in both cases the serving policy is
    untouched.

The agent is also a coordinator *client*: :meth:`TwigNodeAgent.join`
registers with a coordinator and stores the granted epoch, and
:meth:`TwigNodeAgent.start_heartbeats` runs the liveness loop on a
daemon thread, piggybacking last-interval load telemetry so the
coordinator's balancer feedback stays warm.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.core.config import TwigConfig
from repro.core.twig import Twig
from repro.ctrl.rpc import (
    RpcClient,
    RpcInvalidParams,
    RpcMethodNotFound,
    RpcMethodSpec,
    RpcServer,
    method_spec,
)
from repro.errors import ControlPlaneError
from repro.obs.sink import NULL_SINK, TraceSink
from repro.server.machine import CoreAssignment
from repro.services.profiles import get_profile
from repro.services.service import IntervalResult
from repro.sim.node import ServiceObservation, StepResult

__all__ = [
    "NODE_METHODS",
    "TwigNodeAgent",
    "step_result_to_wire",
    "wire_to_step_result",
    "assignments_to_wire",
    "wire_to_assignments",
]

_INTERVAL_FIELDS = tuple(f.name for f in dataclasses.fields(IntervalResult))


def step_result_to_wire(result: StepResult) -> Dict[str, Any]:
    """Encode a :class:`StepResult` as a JSON-serialisable dict.

    Non-finite telemetry (a faulted service's NaN p99/PMCs) is preserved:
    both wire ends are :mod:`repro.ctrl.rpc`, whose JSON codec permits
    NaN, and Twig's degraded-telemetry path depends on seeing it.
    """
    observations = {}
    for name, obs in result.observations.items():
        interval = {
            field: getattr(obs.interval, field) for field in _INTERVAL_FIELDS
        }
        observations[name] = {"interval": interval, "pmcs": dict(obs.pmcs)}
    return {
        "time": result.time,
        "observations": observations,
        "socket_power_w": result.socket_power_w,
        "true_power_w": result.true_power_w,
        "membw_utilization": result.membw_utilization,
        "energy_j": result.energy_j,
    }


def wire_to_step_result(payload: Dict[str, Any]) -> StepResult:
    """Decode :func:`step_result_to_wire` output back into a StepResult."""
    try:
        observations = {}
        for name, obs in dict(payload["observations"]).items():
            interval_fields = dict(obs["interval"])
            unknown = set(interval_fields) - set(_INTERVAL_FIELDS)
            if unknown:
                raise RpcInvalidParams(
                    f"unknown interval fields {sorted(unknown)}"
                )
            observations[str(name)] = ServiceObservation(
                interval=IntervalResult(**interval_fields),
                pmcs={str(k): float(v) for k, v in dict(obs["pmcs"]).items()},
            )
        return StepResult(
            time=int(payload["time"]),
            observations=observations,
            socket_power_w=float(payload["socket_power_w"]),
            true_power_w=float(payload["true_power_w"]),
            membw_utilization=float(payload["membw_utilization"]),
            energy_j=float(payload["energy_j"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RpcInvalidParams(f"malformed step result: {exc}") from exc


def assignments_to_wire(
    assignments: Dict[str, CoreAssignment],
) -> Dict[str, Dict[str, Any]]:
    """Encode per-service :class:`CoreAssignment`\\ s for the wire."""
    return {
        name: {
            "cores": [int(c) for c in assignment.cores],
            "freq_index": int(assignment.freq_index),
            "llc_ways": int(assignment.llc_ways),
        }
        for name, assignment in assignments.items()
    }


def wire_to_assignments(
    payload: Dict[str, Dict[str, Any]],
) -> Dict[str, CoreAssignment]:
    """Decode :func:`assignments_to_wire` output."""
    try:
        return {
            str(name): CoreAssignment(
                cores=tuple(int(c) for c in fields["cores"]),
                freq_index=int(fields["freq_index"]),
                llc_ways=int(fields.get("llc_ways", 0)),
            )
            for name, fields in dict(payload).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise RpcInvalidParams(f"malformed assignments: {exc}") from exc


#: Every method a node agent serves; docs/control_plane.md mirrors this
#: table (tests/test_ctrl_doc.py diffs the two).
NODE_METHODS: Dict[str, RpcMethodSpec] = {
    spec.name: spec
    for spec in (
        method_spec(
            "ping", "Liveness probe.", "object",
        ),
        method_spec(
            "describe",
            "Static description of this node: id, services, policy version.",
            "object",
        ),
        method_spec(
            "allocate",
            "Current per-service core assignments (the serving hot path; "
            "no learner work).",
            "object",
        ),
        method_spec(
            "report_interval",
            "Feed one interval's telemetry through Twig.update and return "
            "the refreshed assignments.",
            "object",
            ("result", "object", "Wire-encoded StepResult "
                                 "(step_result_to_wire)"),
        ),
        method_spec(
            "update_policy",
            "Install a repro.ckpt checkpoint; refuses non-advancing "
            "versions and torn files without touching the serving policy.",
            "object",
            ("path", "str", "Checkpoint path readable by this node"),
            ("version", "int", "Policy version the rollout assigns; must "
                               "advance the node's current version"),
        ),
        method_spec(
            "shutdown",
            "Stop serving; the agent deregisters and closes its server.",
            "object",
        ),
    )
}


class TwigNodeAgent:
    """One node's control-plane presence: a Twig behind an RPC server."""

    def __init__(
        self,
        node_id: str,
        services: Sequence[str],
        seed: int = 0,
        bind: str = "127.0.0.1:0",
        config: Optional[TwigConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
        trace: TraceSink = NULL_SINK,
    ):
        if not services:
            raise ControlPlaneError(f"node {node_id!r} needs at least one service")
        self.node_id = node_id
        self.services = tuple(services)
        self._trace = trace
        profiles = [get_profile(s) for s in services]
        self._lock = threading.Lock()
        self._twig = Twig(
            profiles,
            config or TwigConfig.fast(),
            np.random.default_rng(seed),
            qos_targets=qos_targets,
        )
        self._assignments = self._twig.initial_assignments()
        self._policy_version = 0
        self._last_time = -1
        self._last_loads: Dict[str, Dict[str, float]] = {}
        self._server = RpcServer(self._dispatch, bind=bind).start()
        # Coordinator-client state, populated by join().
        self._coordinator: Optional[RpcClient] = None
        self._epoch: Optional[int] = None
        self._heartbeat_interval_s: Optional[float] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------ #
    # server side
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        return self._server.address

    @property
    def policy_version(self) -> int:
        with self._lock:
            return self._policy_version

    @property
    def twig(self) -> Twig:
        """The wrapped manager (tests reach in to inspect policy state)."""
        return self._twig

    def _dispatch(self, method: str, params: Dict[str, Any]) -> Any:
        if method not in NODE_METHODS:
            raise RpcMethodNotFound(
                f"unknown method {method!r}; known: {sorted(NODE_METHODS)}"
            )
        return getattr(self, f"_rpc_{method}")(params)

    def _rpc_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "node_id": self.node_id}

    def _rpc_describe(self, params: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            return {
                "node_id": self.node_id,
                "services": list(self.services),
                "policy_version": self._policy_version,
                "last_interval": self._last_time,
                "address": self.address,
            }

    def _rpc_allocate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            return {
                "policy_version": self._policy_version,
                "assignments": assignments_to_wire(self._assignments),
            }

    def _rpc_report_interval(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if "result" not in params:
            raise RpcInvalidParams("report_interval needs a 'result' param")
        result = wire_to_step_result(params["result"])
        with self._lock:
            self._assignments = self._twig.update(result)
            self._last_time = result.time
            self._last_loads = {
                name: {
                    "arrival_rps": float(obs.interval.arrival_rate),
                    "utilization": float(obs.interval.utilization),
                    "backlog": float(obs.interval.backlog),
                }
                for name, obs in result.observations.items()
            }
            return {
                "time": result.time,
                "policy_version": self._policy_version,
                "assignments": assignments_to_wire(self._assignments),
            }

    def _rpc_update_policy(self, params: Dict[str, Any]) -> Dict[str, Any]:
        path = params.get("path")
        version = params.get("version")
        if not isinstance(path, str) or not path:
            raise RpcInvalidParams("update_policy needs a 'path' string")
        if not isinstance(version, int) or isinstance(version, bool):
            raise RpcInvalidParams("update_policy needs an integer 'version'")
        with self._lock:
            if version <= self._policy_version:
                raise ControlPlaneError(
                    f"policy version {version} does not advance node "
                    f"{self.node_id!r} (already at {self._policy_version})"
                )
            # Staged load: Twig.load raises CheckpointError on torn or
            # incompatible files *before* mutating any policy state, so a
            # refused rollout leaves the serving policy untouched.
            self._twig.load(path)
            self._policy_version = version
            return {
                "node_id": self.node_id,
                "policy_version": self._policy_version,
            }

    def _rpc_shutdown(self, params: Dict[str, Any]) -> Dict[str, Any]:
        # Tear down only after the reply frame is flushed: closing from a
        # helper thread races the reply off the wire, and the caller sees
        # a connection reset instead of {"ok": true}.
        self._server.defer_after_reply(self.close)
        return {"ok": True}

    # ------------------------------------------------------------------ #
    # coordinator-client side
    # ------------------------------------------------------------------ #
    def join(self, coordinator_address: str, timeout_s: float = 5.0) -> int:
        """Register with a coordinator; returns the granted epoch."""
        client = RpcClient(coordinator_address, timeout_s=timeout_s)
        granted = client.call(
            "register",
            {
                "node_id": self.node_id,
                "address": self.address,
                "services": list(self.services),
            },
        )
        old = self._coordinator
        self._coordinator = client
        self._epoch = int(granted["epoch"])
        self._heartbeat_interval_s = float(granted["heartbeat_interval_s"])
        if old is not None:
            old.close()
        return self._epoch

    @property
    def epoch(self) -> Optional[int]:
        return self._epoch

    def heartbeat_once(self) -> str:
        """One liveness report to the coordinator; returns our state."""
        if self._coordinator is None or self._epoch is None:
            raise ControlPlaneError(
                f"node {self.node_id!r} has not joined a coordinator"
            )
        with self._lock:
            loads = {svc: dict(fields) for svc, fields in self._last_loads.items()}
            policy_version = self._policy_version
        result = self._coordinator.call(
            "heartbeat",
            {
                "node_id": self.node_id,
                "epoch": self._epoch,
                "loads": loads,
                "policy_version": policy_version,
            },
        )
        return str(result["state"])

    def start_heartbeats(self, interval_s: Optional[float] = None) -> None:
        """Run the heartbeat loop on a daemon thread until :meth:`close`."""
        if self._coordinator is None:
            raise ControlPlaneError(
                f"node {self.node_id!r} has not joined a coordinator"
            )
        if self._heartbeat_thread is not None:
            return
        period = (
            float(interval_s)
            if interval_s is not None
            else (self._heartbeat_interval_s or 1.0) / 2.0
        )

        def loop() -> None:
            while not self._stop.wait(period):
                try:
                    self.heartbeat_once()
                except Exception:
                    # A rejected or failed heartbeat (coordinator down,
                    # stale epoch) must not kill the loop; the registry's
                    # deadline sweep is the authority on our liveness.
                    continue

        self._heartbeat_thread = threading.Thread(
            target=loop, name=f"heartbeat:{self.node_id}", daemon=True
        )
        self._heartbeat_thread.start()

    def leave(self) -> None:
        """Deregister from the coordinator (best effort) and stop beats."""
        self._stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        if self._coordinator is not None and self._epoch is not None:
            try:
                self._coordinator.call(
                    "deregister",
                    {"node_id": self.node_id, "epoch": self._epoch},
                )
            except Exception:
                pass
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def close(self) -> None:
        """Stop heartbeats, deregister, and shut the RPC server down."""
        if self._closed:
            return
        self._closed = True
        self.leave()
        self._server.close()

    def __enter__(self) -> "TwigNodeAgent":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
