"""Datacenter-scale simulation: hundreds of nodes in one process.

:class:`ClusterEnvironment` models a fleet of identical servers as a
:class:`~repro.engine.vector_env.VectorEnvironment` whose "environments"
are *nodes*: all queueing/interference/power/PMC math stays array-shaped
over ``(node, service)``, so a 256-node cluster steps through one fused
NumPy path per control interval. Two cluster-only pieces sit on top of
the per-node simulation:

1. a :class:`~repro.cluster.traffic.TrafficModel` produces each LC
   service's fleet-wide demand per region (diurnal curves, flash
   crowds, regional shifts) from a declarative, seed-reproducible spec;
2. a :class:`~repro.cluster.balancer.LoadBalancer` spreads each region's
   demand over its nodes every interval, fed back last interval's
   per-node utilization and backlog.

A node has no load stream: the engine steps on the balancer's rate
matrix, which draws nothing from the node's RNG, so the draw-for-draw
fidelity with a server stepped on its own holds. A 1-node cluster stepped
here is bit-identical to the node :func:`make_cluster_node` builds,
stepped by hand with :class:`~repro.cluster.traffic.ScheduledLoad`
generators set to the same rates (pinned in
``tests/test_cluster_environment.py``).

Trace events from cluster runs carry a ``node`` envelope field instead
of ``env``, and every interval additionally emits one fleet-level
``cluster_interval`` aggregate event (see ``docs/observability.md``).
Checkpointing nests the traffic RNG, balancer state, and balancer
feedback under a ``cluster`` subtree alongside the per-node state, so
``repro.engine.rollout.run_fleet`` checkpoint/resume works unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.cluster.balancer import LoadBalancer, NodeLoads, make_balancer
from repro.cluster.topology import ClusterTopology
from repro.cluster.traffic import (
    ScheduledLoad,
    TrafficModel,
    TrafficSpec,
    check_rates,
    make_traffic_spec,
)
from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import StepBatch, VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.events import make_event
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig

#: Seed offsets separating the cluster-layer RNG streams from the
#: per-node environment streams (which sit at seed + node * ENV_SEED_STRIDE).
TRAFFIC_SEED_OFFSET = 17
BALANCER_SEED_OFFSET = 29


def make_cluster_node(
    services: Sequence[str],
    seed: int,
    config: Optional[EnvironmentConfig] = None,
    qos_targets: Optional[Dict[str, float]] = None,
) -> ColocationEnvironment:
    """One cluster node as a :class:`ColocationEnvironment` (a one-node
    engine), for the paths that step a node on its own, such as the
    ``ctrl_serve`` bench episode. :class:`ClusterEnvironment` builds no
    such object.

    Follows the sibling-seeding recipe (env RNG at ``seed``) but installs
    :class:`~repro.cluster.traffic.ScheduledLoad` generators, so arrival
    rates are set from outside (the balancer's share, via ``set_rate``)
    instead of drawn from per-node curves.
    """
    if not services:
        raise ConfigurationError("need at least one service")
    profiles = [get_profile(name) for name in services]
    generators = {p.name: ScheduledLoad(p.max_load_rps) for p in profiles}
    return ColocationEnvironment(
        config or EnvironmentConfig(),
        profiles,
        generators,
        np.random.default_rng(seed),
        qos_targets=qos_targets,
    )


class ClusterEnvironment(VectorEnvironment):
    """A fleet of N identical nodes stepped in lock-step, with traffic
    generation and load balancing above the per-node simulation."""

    index_tag = "node"

    def __init__(
        self,
        services: Sequence[str],
        num_nodes: int,
        seed: int,
        traffic: TrafficModel,
        balancer: LoadBalancer,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
    ):
        # No load streams: the balancer supplies every node's arrivals.
        super().__init__(services, None, num_nodes, seed, config, qos_targets)
        if traffic.topology.num_nodes != self.num_envs:
            raise ConfigurationError(
                f"traffic topology covers {traffic.topology.num_nodes} nodes, "
                f"cluster has {self.num_envs}"
            )
        if balancer.topology is not traffic.topology:
            if balancer.topology != traffic.topology:
                raise ConfigurationError(
                    "balancer and traffic model use different topologies"
                )
        if list(traffic.names) != self.names:
            raise ConfigurationError(
                f"traffic spec covers services {traffic.names}, "
                f"nodes host {self.names}"
            )
        self.traffic = traffic
        self.balancer = balancer
        self._last_loads: Optional[NodeLoads] = None
        self._pending_rates: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        """Alias for ``num_envs`` in cluster vocabulary."""
        return self.num_envs

    @property
    def topology(self) -> ClusterTopology:
        """The cluster topology shared by traffic model and balancer."""
        return self.traffic.topology

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_services(
        cls,
        services: Sequence[str],
        num_nodes: int,
        seed: int,
        traffic: Union[str, TrafficSpec] = "diurnal",
        balancer: str = "round_robin",
        regions: Optional[Sequence[str]] = None,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
    ) -> "ClusterEnvironment":
        """Build an N-node cluster with deterministic seeding.

        Node ``e``'s environment RNG sits at ``seed + e * ENV_SEED_STRIDE``
        (the sibling recipe), the traffic model RNG at
        ``seed + TRAFFIC_SEED_OFFSET``, and the balancer (when its policy
        is randomized) at ``seed + BALANCER_SEED_OFFSET``, so the whole
        cluster trajectory is a pure function of ``seed``. ``traffic``
        accepts either a preset name from
        :data:`~repro.cluster.traffic.TRAFFIC_PRESETS` or an explicit
        :class:`~repro.cluster.traffic.TrafficSpec`.
        """
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if regions is None:
            regions = ("r0", "r1") if num_nodes >= 2 else ("r0",)
        topology = ClusterTopology(num_nodes, tuple(regions))
        spec = (
            make_traffic_spec(traffic, services)
            if isinstance(traffic, str)
            else traffic
        )
        model = TrafficModel(
            spec, topology, np.random.default_rng(seed + TRAFFIC_SEED_OFFSET)
        )
        policy = make_balancer(balancer, topology, seed=seed + BALANCER_SEED_OFFSET)
        return cls(services, num_nodes, seed, model, policy, config, qos_targets)

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self, assignments: AssignmentBatch) -> StepBatch:
        """Balance this interval's fleet demand, then step every node.

        When a timing registry is attached (traced runs), the cluster
        layer reports three sub-sections of ``env.step``:
        ``cluster.install`` (checking the assignments and installing the
        changed rows), ``cluster.control`` (traffic model + balancer) and
        ``cluster.step`` (the fused node simulation) — see
        ``docs/observability.md``. The assignments are validated and
        installed first, so a refused assignment leaves the traffic
        model's and the balancer's RNG streams where they were. A rate
        matrix with any rate that is not finite and >= 0 raises before
        any node steps.
        """
        timings = self.timings
        t0 = perf_counter() if timings is not None else 0.0
        self._install_assignments(assignments)
        t1 = perf_counter() if timings is not None else 0.0
        demand = self.traffic.demand(self.time)
        rates = self.balancer.assign(self.time, demand, self._last_loads)
        check_rates(rates, self.num_envs * len(self.names))
        self._pending_rates = rates
        if timings is not None:
            t2 = perf_counter()
            timings.get("cluster.install").add(t1 - t0)
            timings.get("cluster.control").add(t2 - t1)
        try:
            batch = self._advance()
        finally:
            self._pending_rates = None
        if timings is not None:
            timings.get("cluster.step").add(perf_counter() - t2)
        return batch

    def _gather_arrivals(self) -> np.ndarray:
        # Arrival rates come from the balancer: a node has no load stream.
        return self._pending_rates

    def _post_step(self, results: StepBatch, arrays: Dict[str, np.ndarray]) -> None:
        # A node whose telemetry came back non-finite (e.g. a
        # service_crash fault NaN-ing its p99) is marked degraded so the
        # balancer sheds its traffic onto live nodes next interval.
        degraded = ~np.isfinite(arrays["p99"]).all(axis=1)
        degraded |= ~np.isfinite(arrays["utilization"]).all(axis=1)
        self._last_loads = NodeLoads(
            arrival_rps=arrays["arrivals"],
            utilization=arrays["utilization"],
            backlog=arrays["backlog"],
            degraded=degraded,
        )
        if self.trace.enabled:
            self._emit_cluster_interval(arrays)

    def _emit_cluster_interval(self, arrays: Dict[str, np.ndarray]) -> None:
        """One fleet-level aggregate event per control interval."""
        p99 = arrays["p99"]
        qos_met = p99 <= self._qos_target[None, :]
        services = {}
        for i, name in enumerate(self.names):
            services[name] = {
                "offered_rps": float(arrays["arrivals"][:, i].sum()),
                "served_rps": float(arrays["throughput"][:, i].sum()),
                "qos_nodes": int(qos_met[:, i].sum()),
                "worst_p99_ms": float(p99[:, i].max()),
                "mean_p99_ms": float(p99[:, i].mean()),
            }
        self.trace.emit(
            make_event(
                "cluster_interval",
                int(arrays["time"][0]),
                nodes=self.num_envs,
                services=services,
                qos_guarantee=float(qos_met.mean()),
                power_w=float(arrays["power_w"].sum()),
                true_power_w=float(arrays["true_power_w"].sum()),
                energy_j=float(sum(arrays["energy_j"].tolist())),
            )
        )

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Per-node trees plus the cluster-layer control state."""
        tree = super().state_dict()
        cluster: Dict[str, Any] = {
            "traffic": self.traffic.state_dict(),
            "balancer": self.balancer.state_dict(),
        }
        if self._last_loads is not None:
            cluster["loads"] = {
                "arrival_rps": np.asarray(self._last_loads.arrival_rps),
                "utilization": np.asarray(self._last_loads.utilization),
                "backlog": np.asarray(self._last_loads.backlog),
            }
            if self._last_loads.degraded is not None:
                cluster["loads"]["degraded"] = np.asarray(
                    self._last_loads.degraded, dtype=bool
                )
        tree["cluster"] = cluster
        return tree

    def _load_state(self, tree: Dict[str, Any]) -> None:
        """Restore nodes, traffic RNG, balancer state and feedback loads."""
        try:
            cluster = dict(tree["cluster"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"cluster checkpoint missing 'cluster' subtree: {exc}"
            ) from exc
        super()._load_state(tree)
        self.traffic.load_state_dict(dict(cluster["traffic"]))
        self.balancer.load_state_dict(dict(cluster["balancer"]))
        loads = cluster.get("loads")
        if loads is None:
            self._last_loads = None
            return
        shape = (self.num_envs, len(self.names))
        feedback = {
            key: np.asarray(loads[key], dtype=np.float64)
            for key in ("arrival_rps", "utilization", "backlog")
        }
        degraded = loads.get("degraded")
        if degraded is not None:
            degraded = np.asarray(degraded, dtype=bool)
        if any(a.shape != shape for a in feedback.values()) or (
            degraded is not None and degraded.shape != shape[:1]
        ):
            raise CheckpointError(f"cluster feedback loads are not {shape} matrices")
        self._last_loads = NodeLoads(**feedback, degraded=degraded)
