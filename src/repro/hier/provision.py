"""Leaf-policy transfer onto freshly provisioned fleets.

When the cluster grows, the new nodes should not learn from scratch:
:func:`provision_fleet` seeds a fleet manager's shared
:class:`~repro.core.fleet.FleetBDQAgent` with trained weights from an
existing checkpoint and then applies the paper's Section-IV transfer
recipe (:meth:`~repro.rl.agent.BDQAgent.transfer`): the shared trunk and
hidden layers are kept, every head's output layer is re-randomised, the
target network is resynced, and the epsilon/beta schedules rewind to
``restart_epsilon_at`` so the new fleet re-explores briefly from a warm
representation.

Any PR-5-era checkpoint whose agent has the same architecture works as a
source: a full ``vector_run`` rollout checkpoint, a ``twig_fleet`` /
``twig_hier`` manager checkpoint, a scalar ``twig`` checkpoint, or a bare
``bdq_agent`` checkpoint. Only the weight arrays are taken — replay
buffers, schedules, and optimiser state stay fresh, which is exactly what
a newly provisioned node wants.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.ckpt.checkpoint import checkpoint_kind, load_state
from repro.errors import CheckpointError
from repro.obs.events import make_event


def _agent_subtree(kind: str, tree: Dict[str, Any], path: Path) -> Dict[str, Any]:
    if kind == "vector_run":
        try:
            return dict(dict(tree["manager"])["agent"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"{path} is a vector_run checkpoint without a manager agent: {exc}"
            ) from exc
    if kind in ("twig_fleet", "twig_hier", "twig"):
        try:
            return dict(tree["agent"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path} has no agent subtree: {exc}") from exc
    if kind == "bdq_agent":
        return tree
    raise CheckpointError(
        f"cannot provision from checkpoint kind {kind!r} at {path}; expected "
        "vector_run, twig_fleet, twig_hier, twig, or bdq_agent"
    )


def provision_fleet(
    manager,
    source: Union[str, Path],
    rng: Optional[np.random.Generator] = None,
    restart_epsilon_at: int = 0,
    time: int = 0,
) -> None:
    """Seed ``manager``'s shared agent from ``source`` and transfer.

    ``manager`` is a :class:`~repro.core.fleet.FleetTwig` (or subclass)
    for the freshly provisioned nodes; ``source`` is any checkpoint whose
    agent matches the manager's network architecture. Loads the online
    weights, then runs :meth:`~repro.rl.agent.BDQAgent.transfer` with
    ``restart_epsilon_at`` (default 0: restart exploration from scratch).
    Emits one ``node_provisioned`` trace event per node when tracing is
    enabled, and records the provisioning in the manager's log when it
    keeps one (:class:`~repro.hier.manager.HierFleetTwig` does).
    """
    path = Path(source)
    try:
        kind = checkpoint_kind(path)
    except FileNotFoundError as exc:
        raise CheckpointError(f"provisioning source not found: {path}") from exc
    if kind is None:
        raise CheckpointError(f"{path} is not a readable checkpoint")
    tree = load_state(path)
    agent_tree = _agent_subtree(kind, tree, path)
    try:
        online_tree = dict(agent_tree["online"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path} agent has no online weights: {exc}") from exc

    network = manager.agent.online
    staged = network.stage_weights(online_tree, f"{path} online")
    for param, value in zip(network.parameters(), staged):
        param.value[...] = value
    # Section-IV transfer: keep the trunk, re-randomise output layers,
    # resync the target, rewind the exploration schedules.
    manager.agent.transfer(rng, restart_epsilon_at=restart_epsilon_at)

    entry = {"source": str(path), "restart_epsilon_at": int(restart_epsilon_at)}
    log = getattr(manager, "_provision_log", None)
    if log is not None:
        log.append(entry)
    if manager.trace.enabled:
        for e in range(manager.num_envs):
            manager.trace.emit(
                make_event(
                    "node_provisioned",
                    time,
                    source=str(path),
                    services=list(manager.service_order),
                    restart_epsilon_at=int(restart_epsilon_at),
                    **{manager.index_tag: e},
                )
            )
