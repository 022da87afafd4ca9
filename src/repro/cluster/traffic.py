"""Trace-driven cluster traffic from declarative, seed-reproducible specs.

A :class:`TrafficSpec` describes each LC service's fleet-wide demand as
a composition of primitives the datacenter literature cares about:

- a **diurnal curve** per service (:class:`ServiceTraffic`): a sinusoid
  ``base_fraction + diurnal_amplitude * sin(2*pi*t/period + phase)`` of
  the service's per-node maximum load, optionally with multiplicative
  Gaussian noise;
- **flash crowds** (:class:`FlashCrowd`): a demand multiplier for one
  service over a time window, fleet-wide or confined to one region;
- **regional shifts** (:class:`RegionalShift`): a fraction of one
  region's traffic share migrating to another region for a window
  (a failover or follow-the-sun drain). Shifts move *share*, so total
  demand is conserved.

:class:`TrafficModel` evaluates a spec against a
:class:`~repro.cluster.topology.ClusterTopology` and returns, per
control interval, the ``(regions, services)`` demand matrix in requests
per second that the load balancer then spreads over nodes. All
randomness comes from one private RNG whose state round-trips through
``state_dict`` / ``load_state_dict``, so cluster runs are seed-exact and
resumable. The spec format is documented in ``docs/fleet.md`` (a test
diffs the doc against this module).

:class:`ScheduledLoad` is the glue to the per-node simulation: a
:class:`~repro.services.loadgen.LoadGenerator` whose rate is *set* by
the balancer each interval instead of being drawn. It carries
``jitter_std = 0`` and therefore consumes no RNG draws, preserving the
vector engine's draw-for-draw RNG fidelity contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.checkpoint import rng_state, set_rng_state
from repro.cluster.topology import ClusterTopology
from repro.errors import CheckpointError, ConfigurationError
from repro.services.loadgen import LoadGenerator
from repro.services.profiles import get_profile

#: Per-node load fractions are clipped here after noise/crowd scaling;
#: matches the ``ConstantLoad`` upper bound (mild overload allowed).
MAX_FRACTION = 1.5


@dataclass(frozen=True)
class ServiceTraffic:
    """One service's fleet-average diurnal demand curve."""

    service: str
    base_fraction: float = 0.5
    diurnal_amplitude: float = 0.0
    period: int = 2000
    phase: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_fraction <= MAX_FRACTION:
            raise ConfigurationError(
                f"base_fraction out of [0, {MAX_FRACTION}]: {self.base_fraction}"
            )
        if self.diurnal_amplitude < 0:
            raise ConfigurationError(
                f"diurnal_amplitude must be >= 0, got {self.diurnal_amplitude}"
            )
        if self.diurnal_amplitude > self.base_fraction:
            raise ConfigurationError(
                "diurnal_amplitude exceeds base_fraction; demand would go negative"
            )
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass(frozen=True)
class FlashCrowd:
    """A demand multiplier for one service over ``[start, start+duration)``."""

    service: str
    start: int
    duration: int
    magnitude: float
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ConfigurationError(f"duration must be >= 1, got {self.duration}")
        if self.magnitude <= 0:
            raise ConfigurationError(f"magnitude must be > 0, got {self.magnitude}")

    def active(self, t: int) -> bool:
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class RegionalShift:
    """``fraction`` of ``source``'s traffic share served by ``target``."""

    start: int
    duration: int
    source: str
    target: str
    fraction: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ConfigurationError(f"duration must be >= 1, got {self.duration}")
        if self.source == self.target:
            raise ConfigurationError("source and target regions must differ")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction out of (0, 1]: {self.fraction}")

    def active(self, t: int) -> bool:
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative traffic trace: curves plus flash crowds plus shifts."""

    services: Tuple[ServiceTraffic, ...]
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    regional_shifts: Tuple[RegionalShift, ...] = ()

    def __post_init__(self) -> None:
        if not self.services:
            raise ConfigurationError("TrafficSpec needs at least one service curve")
        names = [s.service for s in self.services]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate service curves: {names}")
        for crowd in self.flash_crowds:
            if crowd.service not in names:
                raise ConfigurationError(
                    f"flash crowd targets unknown service {crowd.service!r}; "
                    f"spec covers {names}"
                )

    def service_names(self) -> Tuple[str, ...]:
        return tuple(s.service for s in self.services)


class TrafficModel:
    """Evaluate a :class:`TrafficSpec` into per-region demand matrices.

    ``demand(t)`` returns an ``(R, S)`` array of requests per second:
    row ``r`` is the share of each service's fleet-wide demand that
    arrives in region ``r`` at control interval ``t``. Fleet-wide demand
    for service ``s`` is ``fraction_s(t) * max_load_rps_s * num_nodes``
    — i.e. the spec's fractions are *fleet-average per-node* loads, so a
    curve at 0.5 keeps an evenly balanced cluster at 50 % of each node's
    maximum regardless of cluster size.
    """

    def __init__(
        self,
        spec: TrafficSpec,
        topology: ClusterTopology,
        rng: np.random.Generator,
    ):
        self.spec = spec
        self.topology = topology
        self._rng = rng
        for shift in spec.regional_shifts:
            topology.region_index(shift.source)
            topology.region_index(shift.target)
        for crowd in spec.flash_crowds:
            if crowd.region is not None:
                topology.region_index(crowd.region)
        self.names = list(spec.service_names())
        self._max_rps = np.array(
            [get_profile(n).max_load_rps for n in self.names], dtype=np.float64
        )
        self._base = np.array([s.base_fraction for s in spec.services])
        self._amp = np.array([s.diurnal_amplitude for s in spec.services])
        self._period = np.array([s.period for s in spec.services], dtype=np.float64)
        self._phase = np.array([s.phase for s in spec.services])
        self._noise = np.array([s.noise_std for s in spec.services])
        self._has_noise = bool((self._noise > 0).any())

    def fractions(self, t: int) -> np.ndarray:
        """Deterministic fleet-average load fraction per service at ``t``.

        Excludes noise and regional effects — the pure diurnal curve with
        fleet-wide flash crowds applied. Draws nothing from the RNG.
        """
        f = self._base + self._amp * np.sin(
            2.0 * np.pi * t / self._period + self._phase
        )
        for crowd in self.spec.flash_crowds:
            if crowd.region is None and crowd.active(t):
                f[self.names.index(crowd.service)] *= crowd.magnitude
        return np.clip(f, 0.0, MAX_FRACTION)

    def region_weights(self, t: int) -> np.ndarray:
        """Traffic share per region at ``t`` (sums to 1).

        Starts from the topology's baseline (proportional to node count)
        and applies active regional shifts in spec order; each shift
        moves ``fraction`` of the source's *current* share.
        """
        weights = self.topology.baseline_weights().copy()
        for shift in self.spec.regional_shifts:
            if shift.active(t):
                src = self.topology.region_index(shift.source)
                dst = self.topology.region_index(shift.target)
                moved = weights[src] * shift.fraction
                weights[src] -= moved
                weights[dst] += moved
        return weights

    def demand(self, t: int) -> np.ndarray:
        """Demand matrix ``(regions, services)`` in requests/s at ``t``.

        Consumes exactly one ``standard_normal(S)`` block from the model
        RNG per call iff any curve has ``noise_std > 0`` (zero draws
        otherwise), keeping traffic reproducible and resumable.
        """
        f = self.fractions(t)
        if self._has_noise:
            f = f * (1.0 + self._noise * self._rng.standard_normal(len(self.names)))
            f = np.clip(f, 0.0, MAX_FRACTION)
        total = f * self._max_rps * self.topology.num_nodes  # (S,)
        demand = self.region_weights(t)[:, None] * total[None, :]
        for crowd in self.spec.flash_crowds:
            if crowd.region is not None and crowd.active(t):
                r = self.topology.region_index(crowd.region)
                demand[r, self.names.index(crowd.service)] *= crowd.magnitude
        return demand

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def spec_fingerprint(self) -> str:
        """Deterministic identity of the spec + topology driving demand.

        ``demand(t)`` is a pure function of ``t``, the spec, the topology
        and the RNG stream. The RNG state alone used to be the whole
        checkpoint, which silently produced drifted traffic when a resume
        paired the saved stream with a *different* spec — e.g. restoring
        mid-:class:`FlashCrowd` into a model whose crowd window differs.
        The fingerprint pins the other two inputs.
        """
        return (
            f"{self.spec!r}|nodes={self.topology.num_nodes}"
            f"|regions={tuple(self.topology.regions)!r}"
        )

    def state_dict(self) -> Dict[str, Any]:
        return {
            "rng": rng_state(self._rng),
            "spec": self.spec_fingerprint(),
        }

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        saved = tree.get("spec")
        if saved is not None:
            saved = str(np.asarray(saved)[()]) if isinstance(saved, np.ndarray) else str(saved)
            if saved != self.spec_fingerprint():
                raise CheckpointError(
                    "traffic checkpoint was written by a different spec/topology; "
                    f"saved {saved!r}, model has {self.spec_fingerprint()!r}"
                )
        set_rng_state(self._rng, dict(tree["rng"]))


class ScheduledLoad(LoadGenerator):
    """A load generator driven by the cluster balancer, not by a curve.

    Each control interval the cluster layer calls :meth:`set_rate` with
    the node's balancer-assigned share of the fleet demand; :meth:`rate`
    then returns that value *exactly* (no jitter, no RNG draws). This is
    what lets a 1-node cluster reproduce a hand-stepped scalar
    environment bit-for-bit, and what keeps the vector engine's RNG
    stream identical to the scalar oracle's.
    """

    def __init__(self, max_load_rps: float):
        super().__init__(max_load_rps, rng=np.random.default_rng(0), jitter_std=0.0)
        self._scheduled_rate = 0.0

    def set_rate(self, rate_rps: float) -> None:
        """Install the arrival rate returned by subsequent ``rate()`` calls."""
        if not np.isfinite(rate_rps) or rate_rps < 0:
            raise ConfigurationError(f"scheduled rate must be finite >= 0: {rate_rps}")
        self._scheduled_rate = float(rate_rps)

    def fraction(self, t: int) -> float:
        return self._scheduled_rate / self.max_load_rps

    def rate(self, t: int) -> float:
        # Bypass the base-class fraction->rate round trip so the balancer
        # assignment is reproduced bit-exactly.
        return self._scheduled_rate


def check_rates(rates: np.ndarray) -> np.ndarray:
    """``rates`` as a flat float64 array, once every rate is finite and >= 0.

    Raises :meth:`ScheduledLoad.set_rate`'s error for the first rate in
    row-major order that is not.
    """
    flat = np.asarray(rates, dtype=np.float64).ravel()
    valid = np.isfinite(flat) & (flat >= 0)
    if not valid.all():
        bad = flat[np.argmin(valid)]
        raise ConfigurationError(f"scheduled rate must be finite >= 0: {bad}")
    return flat


def install_rates(generators: Sequence[ScheduledLoad], rates: np.ndarray) -> None:
    """Validate a whole rate matrix, then install it into ``generators``.

    ``generators`` holds one :class:`ScheduledLoad` per entry of
    ``rates`` in row-major (node, service) order. Each generator ends up
    where ``set_rate`` would put it, but a matrix with any rate that is
    not finite and >= 0 raises ``set_rate``'s error before a single
    generator is written.
    """
    flat = check_rates(rates)
    if len(flat) != len(generators):
        raise ConfigurationError(
            f"got {len(flat)} rates for {len(generators)} generators"
        )
    for generator, rate in zip(generators, flat.tolist()):
        generator._scheduled_rate = rate


# ---------------------------------------------------------------------- #
# presets
# ---------------------------------------------------------------------- #
def _steady(services: Sequence[str]) -> TrafficSpec:
    return TrafficSpec(
        services=tuple(ServiceTraffic(name, base_fraction=0.5) for name in services)
    )


def _diurnal(services: Sequence[str]) -> TrafficSpec:
    return TrafficSpec(
        services=tuple(
            ServiceTraffic(
                name,
                base_fraction=0.5,
                diurnal_amplitude=0.25,
                period=2000,
                phase=0.5 * i,          # stagger peaks across services
                noise_std=0.02,
            )
            for i, name in enumerate(services)
        )
    )


def _flash_crowd(services: Sequence[str]) -> TrafficSpec:
    diurnal = _diurnal(services)
    return TrafficSpec(
        services=diurnal.services,
        flash_crowds=(
            FlashCrowd(service=services[0], start=100, duration=60, magnitude=2.5),
        ),
    )


def _regional_shift(services: Sequence[str]) -> TrafficSpec:
    diurnal = _diurnal(services)
    return TrafficSpec(
        services=diurnal.services,
        regional_shifts=(
            RegionalShift(start=150, duration=150, source="r0", target="r1",
                          fraction=0.6),
        ),
    )


#: Named, declarative traffic presets selectable as ``--traffic NAME``
#: (``repro run cluster``). Each maps a service list to a
#: :class:`TrafficSpec`; ``docs/fleet.md`` documents them (schema-diffed
#: by ``tests/test_fleet_doc.py``).
TRAFFIC_PRESETS: Dict[str, Callable[[Sequence[str]], TrafficSpec]] = {
    "steady": _steady,
    "diurnal": _diurnal,
    "flash_crowd": _flash_crowd,
    "regional_shift": _regional_shift,
}


def make_traffic_spec(preset: str, services: Sequence[str]) -> TrafficSpec:
    """Instantiate a named preset for ``services``."""
    if preset not in TRAFFIC_PRESETS:
        raise ConfigurationError(
            f"unknown traffic preset {preset!r}; known: {sorted(TRAFFIC_PRESETS)}"
        )
    if not services:
        raise ConfigurationError("need at least one service")
    return TRAFFIC_PRESETS[preset](list(services))
