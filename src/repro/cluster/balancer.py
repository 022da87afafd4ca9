"""Cluster-level load balancing: spread regional demand over nodes.

Each control interval the cluster hands the balancer the ``(R, S)``
regional demand matrix from :class:`~repro.cluster.traffic.TrafficModel`
plus last interval's per-node feedback (:class:`NodeLoads`), and gets
back an ``(N, S)`` matrix of per-node arrival rates. Every policy
**conserves traffic**: within each region, a service's node rates sum to
that region's demand (a pinned test checks this to 1e-9 for all
policies). Balancing never crosses regions — regional placement is the
traffic model's job.

Policies (registered in :data:`BALANCER_POLICIES`, selectable as
``--balancer NAME``):

``round_robin``
    Splits each region's demand into ``granularity`` equal chunks and
    deals them out cyclically, carrying a cursor across intervals.
    Deterministic, feedback-free, near-uniform.
``least_loaded``
    Weights nodes by spare capacity ``max(1 - pressure, floor)`` using
    last interval's utilization/backlog feedback. Uniform on the first
    interval (no feedback yet).
``power_of_two``
    Classic power-of-two-choices: per chunk, sample two nodes from the
    policy's private RNG and give the chunk to the less loaded one
    (feedback pressure plus the chunks already dealt this interval).
``sharded_by_key``
    Key-affinity sharding: ``num_shards`` synthetic key shards are hashed
    to nodes with a fixed integer mix (stable across runs and processes
    — no Python ``hash``), optionally with a Zipf-like ``skew`` so hot
    shards exist. Assignment ignores load feedback entirely, modelling
    stateful services that cannot move keys.

Every policy runs the same per-region loop in :meth:`LoadBalancer.assign`:
its ``_shares`` for each region's nodes, then degraded-node shedding.
Policies with mutable state (cursor, RNG) round-trip it through
``state_dict`` / ``load_state_dict`` so cluster runs are resumable
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

import numpy as np

from repro.ckpt.checkpoint import rng_state, set_rng_state
from repro.cluster.topology import ClusterTopology
from repro.errors import ConfigurationError


@dataclass
class NodeLoads:
    """Per-node feedback from the previous cluster interval.

    All arrays are ``(N, S)``: the arrival rates the balancer assigned,
    the utilization the simulation measured, and the request backlog left
    over (non-zero only for overloaded services). ``degraded`` is an
    optional ``(N,)`` boolean mask marking nodes whose telemetry came
    back non-finite last interval (crashed/faulted services) — balancers
    shed load away from marked nodes until their telemetry recovers.
    """

    arrival_rps: np.ndarray
    utilization: np.ndarray
    backlog: np.ndarray
    degraded: Optional[np.ndarray] = None

    def pressure(self) -> np.ndarray:
        """Scalar per-node pressure in roughly ``[0, 2]``.

        Mean utilization across the node's services, plus a backlog term
        (backlog relative to one interval's arrivals, capped at 1) so an
        overloaded node reads as strictly busier than a saturated one.
        Non-finite telemetry (a faulted node) reads as fully saturated
        rather than poisoning downstream share computations with NaN.
        """
        util = np.where(np.isfinite(self.utilization), self.utilization, 1.0)
        util = np.clip(util, 0.0, 1.0).mean(axis=1)
        backlog_raw = np.where(np.isfinite(self.backlog), self.backlog, 0.0)
        arrivals = np.where(np.isfinite(self.arrival_rps), self.arrival_rps, 0.0)
        arrivals = np.maximum(arrivals.sum(axis=1), 1.0)
        backlog = np.minimum(backlog_raw.sum(axis=1) / arrivals, 1.0)
        return util + backlog

    def degraded_mask(self) -> Optional[np.ndarray]:
        """The ``(N,)`` degraded-node mask, or ``None`` if untracked."""
        if self.degraded is None:
            return None
        return np.asarray(self.degraded, dtype=bool)


class LoadBalancer:
    """Base policy: per-region share computation + traffic conservation."""

    name = "base"

    def __init__(self, topology: ClusterTopology, seed: int = 0):
        self.topology = topology
        self.seed = seed

    def assign(
        self, t: int, demand: np.ndarray, loads: Optional[NodeLoads] = None
    ) -> np.ndarray:
        """Spread the ``(R, S)`` regional demand into ``(N, S)`` node rates."""
        demand = np.asarray(demand, dtype=np.float64)
        R, N = self.topology.num_regions, self.topology.num_nodes
        if demand.ndim != 2 or demand.shape[0] != R:
            raise ConfigurationError(
                f"demand must be (regions={R}, services), got {demand.shape}"
            )
        if (demand < 0).any() or not np.isfinite(demand).all():
            raise ConfigurationError("demand must be finite and non-negative")
        pressure = loads.pressure() if loads is not None else None
        degraded = loads.degraded_mask() if loads is not None else None
        rates = np.zeros((N, demand.shape[1]))
        for r in range(R):
            nodes = self.topology.region_nodes(r)
            node_pressure = pressure[nodes] if pressure is not None else None
            shares = self._shares(r, t, len(nodes), demand[r], node_pressure)
            if degraded is not None:
                shares = _shed_degraded(shares, degraded[nodes])
            rates[nodes] = shares * demand[r][None, :]
        return rates

    def _shares(
        self,
        region: int,
        t: int,
        n: int,
        demand: np.ndarray,
        pressure: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-node share matrix ``(n, S)``; each column must sum to 1."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Mutable policy state (cursors, RNG); empty for stateless policies."""
        return {}

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` state; no-op for stateless policies."""


def _shed_degraded(shares: np.ndarray, degraded: np.ndarray) -> np.ndarray:
    """Zero degraded nodes' shares and renormalize each service column.

    Live nodes absorb the shed traffic proportionally to their existing
    shares; a column whose live shares collapsed to zero falls back to
    uniform-over-live. If *every* node in the region is degraded there is
    nowhere to shed to, so the original shares are kept — conservation
    always holds.
    """
    degraded = np.asarray(degraded, dtype=bool)
    if not degraded.any() or degraded.all():
        return shares
    shed = shares.copy()
    shed[degraded] = 0.0
    live = ~degraded
    column_total = shed.sum(axis=0)
    uniform_live = live.astype(np.float64) / live.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = shed / column_total[None, :]
    return np.where(column_total[None, :] > 0.0, scaled, uniform_live[:, None])


class RoundRobinBalancer(LoadBalancer):
    """Deal ``granularity`` equal demand chunks out cyclically per region."""

    name = "round_robin"

    def __init__(self, topology: ClusterTopology, seed: int = 0, granularity: int = 64):
        super().__init__(topology, seed)
        if granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {granularity}")
        self.granularity = granularity
        self._cursors = [0] * topology.num_regions

    def _shares(self, region, t, n, demand, pressure):
        counts = np.full(n, self.granularity // n, dtype=np.float64)
        remainder = self.granularity % n
        if remainder:
            cursor = self._cursors[region]
            counts[(cursor + np.arange(remainder)) % n] += 1
            self._cursors[region] = (cursor + remainder) % n
        shares = counts / self.granularity
        return np.broadcast_to(shares[:, None], (n, len(demand))).copy()

    def state_dict(self):
        """The per-region remainder cursors."""
        return {"cursors": np.array(self._cursors, dtype=np.int64)}

    def load_state_dict(self, tree):
        """Restore the per-region cursors saved by :meth:`state_dict`."""
        cursors = np.asarray(tree["cursors"], dtype=np.int64)
        if cursors.shape != (self.topology.num_regions,):
            raise ConfigurationError(
                f"cursor state has shape {cursors.shape}, topology has "
                f"{self.topology.num_regions} regions"
            )
        self._cursors = [int(c) for c in cursors]


class LeastLoadedBalancer(LoadBalancer):
    """Weight nodes by spare capacity from last interval's feedback."""

    name = "least_loaded"

    def __init__(self, topology: ClusterTopology, seed: int = 0, floor: float = 0.05):
        super().__init__(topology, seed)
        if not 0.0 < floor <= 1.0:
            raise ConfigurationError(f"floor out of (0, 1]: {floor}")
        self.floor = floor

    def _shares(self, region, t, n, demand, pressure):
        if pressure is None:
            headroom = np.ones(n)
        else:
            # The floor keeps every node receiving some traffic, so a
            # transiently saturated node is never starved of feedback.
            headroom = np.maximum(1.0 - pressure, self.floor)
        total = headroom.sum()
        if not np.isfinite(total) or total <= 0.0:
            # All-saturated feedback can leave every headroom pinned to
            # the floor; with a tiny floor (or non-finite pressure) the
            # sum can underflow or go NaN. Fall back to a uniform split,
            # which is both finite and conserving.
            shares = np.full(n, 1.0 / n)
        else:
            shares = headroom / total
        return np.broadcast_to(shares[:, None], (n, len(demand))).copy()


class PowerOfTwoBalancer(LoadBalancer):
    """Two random choices per chunk, chunk goes to the less loaded node."""

    name = "power_of_two"

    def __init__(self, topology: ClusterTopology, seed: int = 0, granularity: int = 64):
        super().__init__(topology, seed)
        if granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {granularity}")
        self.granularity = granularity
        self._rng = np.random.default_rng(seed)

    def _shares(self, region, t, n, demand, pressure):
        if pressure is None:
            running = [0.0] * n
        else:
            # Non-finite pressure (a faulted node) must lose every
            # two-choice comparison, not win ties via NaN semantics.
            running = np.where(
                np.isfinite(pressure), pressure.astype(np.float64), np.inf
            ).tolist()
        # The picks run over Python floats and ints, which round and
        # compare as the float64 arrays would, without a numpy scalar per
        # read.
        counts = [0] * n
        choices = self._rng.integers(0, n, size=(self.granularity, 2)).tolist()
        chunk_load = 1.0 / self.granularity
        for a, b in choices:
            pick = a if running[a] <= running[b] else b
            counts[pick] += 1
            running[pick] += chunk_load
        shares = np.array(counts, dtype=np.float64) / self.granularity
        return np.broadcast_to(shares[:, None], (n, len(demand))).copy()

    def state_dict(self):
        """The private two-choice sampling RNG state."""
        return {"rng": rng_state(self._rng)}

    def load_state_dict(self, tree):
        """Resume the sampling RNG exactly where :meth:`state_dict` left it."""
        set_rng_state(self._rng, dict(tree["rng"]))


def _mix_hash(values: np.ndarray) -> np.ndarray:
    """SplitMix64-style integer finalizer (stable across runs/processes)."""
    x = values.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class ShardedByKeyBalancer(LoadBalancer):
    """Hash synthetic key shards to nodes; ignore load feedback."""

    name = "sharded_by_key"

    def __init__(
        self,
        topology: ClusterTopology,
        seed: int = 0,
        num_shards: int = 256,
        skew: float = 0.0,
    ):
        super().__init__(topology, seed)
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if skew < 0:
            raise ConfigurationError(f"skew must be >= 0, got {skew}")
        self.num_shards = num_shards
        self.skew = skew
        # Zipf-like shard popularity: shard k carries weight (k+1)^-skew.
        weights = (np.arange(num_shards, dtype=np.float64) + 1.0) ** (-skew)
        self._shard_weights = weights / weights.sum()
        self._cache: Dict[Any, np.ndarray] = {}

    def _shares(self, region, t, n, demand, pressure):
        key = (region, n, len(demand))
        cached = self._cache.get(key)
        if cached is None:
            S = len(demand)
            shards = np.arange(self.num_shards, dtype=np.uint64)
            # Mix the shard id with the region, service, and seed so
            # every (region, service) pair gets its own placement. All
            # services hash in one pass; one flat bincount (bin
            # ``s * n + node``) replaces the per-service loop and
            # accumulates the same weights in the same order.
            with np.errstate(over="ignore"):
                salts = (
                    np.uint64(region) * np.uint64(0x100000001B3)
                    + np.arange(S, dtype=np.uint64) * np.uint64(0x1000193)
                    + np.uint64(self.seed & 0xFFFFFFFF)
                )
                salted = shards[None, :] + salts[:, None]
            nodes = (_mix_hash(salted) % np.uint64(n)).astype(np.int64)
            flat = (nodes + np.arange(S, dtype=np.int64)[:, None] * n).ravel()
            weights = np.broadcast_to(
                self._shard_weights, (S, self.num_shards)
            ).ravel()
            cached = np.ascontiguousarray(
                np.bincount(flat, weights=weights, minlength=S * n)
                .reshape(S, n)
                .T
            )
            self._cache[key] = cached
        return cached


#: Policy registry, selectable by name from configs and the CLI.
#: ``docs/fleet.md`` documents every entry (schema-diffed by
#: ``tests/test_fleet_doc.py``).
BALANCER_POLICIES: Dict[str, Type[LoadBalancer]] = {
    policy.name: policy
    for policy in (
        RoundRobinBalancer,
        LeastLoadedBalancer,
        PowerOfTwoBalancer,
        ShardedByKeyBalancer,
    )
}


def make_balancer(name: str, topology: ClusterTopology, seed: int = 0) -> LoadBalancer:
    """Instantiate a registered policy with its default knobs."""
    if name not in BALANCER_POLICIES:
        raise ConfigurationError(
            f"unknown balancer policy {name!r}; known: {sorted(BALANCER_POLICIES)}"
        )
    return BALANCER_POLICIES[name](topology, seed=seed)
