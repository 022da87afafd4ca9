"""Cluster topology: nodes grouped into named regions.

The cluster model is deliberately flat: ``num_nodes`` identical servers
(each one a full :class:`~repro.sim.environment.ColocationEnvironment`)
partitioned into named *regions*. Regions are the unit of traffic
placement — the traffic model splits each service's aggregate demand
across regions (``docs/fleet.md``), and the load balancer spreads each
region's share over that region's nodes only. Nodes are striped over the
regions round-robin (node ``e`` lives in region ``e % len(regions)``),
so region populations never differ by more than one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ClusterTopology:
    """``num_nodes`` servers striped round-robin over named regions."""

    num_nodes: int
    regions: Tuple[str, ...] = ("r0",)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if not self.regions:
            raise ConfigurationError("topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigurationError(f"duplicate region names: {self.regions}")
        if len(self.regions) > self.num_nodes:
            raise ConfigurationError(
                f"{len(self.regions)} regions but only {self.num_nodes} nodes; "
                "every region needs at least one node"
            )

    @property
    def num_regions(self) -> int:
        """Number of named regions the nodes are striped over."""
        return len(self.regions)

    def region_index(self, region: str) -> int:
        """Position of ``region`` in the region tuple (raises if unknown)."""
        try:
            return self.regions.index(region)
        except ValueError:
            raise ConfigurationError(
                f"unknown region {region!r}; topology has {list(self.regions)}"
            ) from None

    def region_nodes(self, region_index: int) -> np.ndarray:
        """Node indices belonging to region ``region_index`` (ascending)."""
        if not 0 <= region_index < len(self.regions):
            raise ConfigurationError(
                f"region index {region_index} out of range [0, {len(self.regions)})"
            )
        return np.arange(region_index, self.num_nodes, len(self.regions))

    def region_sizes(self) -> np.ndarray:
        """Node count per region, in ``regions`` order."""
        return np.array(
            [len(self.region_nodes(r)) for r in range(len(self.regions))],
            dtype=np.int64,
        )

    def baseline_weights(self) -> np.ndarray:
        """Baseline traffic share per region: proportional to node count."""
        sizes = self.region_sizes().astype(np.float64)
        return sizes / sizes.sum()
