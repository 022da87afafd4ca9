"""The leaf side of the hierarchy: budget-aware fleet control.

:class:`HierFleetTwig` is a :class:`~repro.core.fleet.FleetTwig` (so
all N nodes still act through one fused forward and train through one
fused GEMM per tick) plus a :class:`~repro.hier.allocator.BudgetAllocator`
on top. Every ``period`` control ticks the manager aggregates the
window's per-node stats, rewards the allocator for the window just
ended, asks it for the next (level, tilt), derives per-node watt
budgets, and emits one ``budget_assign`` trace event.

The budget reaches the leaves through the two array hooks of
:class:`~repro.core.fleet.FleetTwig`, one pass over every node row:

- **reward shaping** (:meth:`_shape_reward_rows`): Equation-1 stays
  intact; when a node's summed Equation-2 power estimate exceeded its
  budget, ``theta * overshoot`` is subtracted from every service's
  reward on that node, so the leaves learn to live inside the envelope;
- **action masking** (:meth:`_repair_action_rows`): decoded actions
  whose estimated node power exceeds the budget are greedily repaired —
  the highest-power service steps its DVFS down first, then sheds cores
  — entirely deterministically (no RNG draws), so acting stays on the
  agent's RNG stream. The repaired actions are what the agent learns
  from.

``tests/test_engine_fleet_array.py`` pins both hooks against per-env
dict forms of the same rules on the dict-state reference fleet.
:meth:`HierFleetTwig.update_batch` takes a
:class:`~repro.engine.vector_env.StepBatch` only.

All hierarchical state (allocator agent, budgets, window accumulators,
provisioning log) rides in :meth:`state_dict` under a ``hier`` subtree,
so ``run_fleet``'s ``vector_run`` checkpoints resume bit-identically
with zero rollout-loop changes; a ``hier`` subtree that would poison
the leaves or the allocator is refused. ``name = "twig-hier"`` keeps
flat and hierarchical checkpoints from cross-resuming.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.fleet import FleetTwig
from repro.engine.vector_env import StepBatch
from repro.errors import CheckpointError, ConfigurationError
from repro.hier.allocator import BudgetAllocator, BudgetConfig
from repro.obs.events import make_event


class HierFleetTwig(FleetTwig):
    """N budget-constrained Twig leaves under one fleet allocator."""

    CKPT_KIND = "twig_hier"

    def __init__(
        self,
        profiles,
        config,
        rng: np.random.Generator,
        num_envs: int,
        budget: Optional[BudgetConfig] = None,
        allocator_rng: Optional[np.random.Generator] = None,
        **kwargs,
    ):
        super().__init__(profiles, config, rng, num_envs, **kwargs)
        self.name = "twig-hier"
        self.budget_config = budget or BudgetConfig()
        self.allocator = BudgetAllocator(
            self.budget_config,
            self.max_power_w,
            allocator_rng if allocator_rng is not None else np.random.default_rng(0),
        )
        #: Per-node watt budgets; wide open until the first assignment.
        self.budgets = np.full(num_envs, self.max_power_w, dtype=np.float64)
        self._tick = 0
        self._win_power = 0.0
        self._win_util = 0.0
        self._win_qos_met = 0
        self._win_qos_total = 0
        self._win_ticks = 0
        self._win_node_viol = np.zeros(num_envs, dtype=np.float64)
        #: Provisioning history (source checkpoint + schedule rewind),
        #: appended by :func:`repro.hier.provision.provision_fleet`.
        self._provision_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # lock-step control with periodic reallocation
    # ------------------------------------------------------------------ #
    def update_batch(self, results: StepBatch):
        """One tick over a :class:`~repro.engine.vector_env.StepBatch`;
        a plain result sequence is refused (the window sums read the
        batch's matrices)."""
        if not isinstance(results, StepBatch):
            raise ConfigurationError(
                f"HierFleetTwig.update_batch takes a StepBatch, got {type(results).__name__}"
            )
        self._accumulate_window(results.arrays)
        self._tick += 1
        if self._tick % self.budget_config.period == 0:
            self._reallocate(int(results.arrays["time"][0]))
        return super().update_batch(results)

    def _accumulate_window(self, arrays: Dict[str, np.ndarray]) -> None:
        # The power and utilisation sums advance node by node (Python
        # float adds), so they do not depend on NumPy's summation order.
        p99 = arrays["p99"]
        util = arrays["utilization"]
        met = np.isfinite(p99) & (p99 <= arrays["qos_target"])
        self._win_qos_total += met.size
        self._win_qos_met += int(met.sum())
        self._win_node_viol += (~met).sum(axis=1).astype(np.float64)
        finite_util = np.where(np.isfinite(util), util, 1.0)
        for v in arrays["power_w"].tolist():
            self._win_power += v
        for v in finite_util.mean(axis=1).tolist():
            self._win_util += v
        self._win_ticks += 1

    def _fleet_state(self) -> np.ndarray:
        ticks = max(self._win_ticks, 1)
        n_levels = len(self.allocator.level_ladder)
        n_tilts = len(self.allocator.tilt_ladder)
        return np.array(
            [
                self._win_util / (ticks * self.num_envs),
                self._win_qos_met / max(self._win_qos_total, 1),
                float((self._win_node_viol > 0).mean()),
                self._win_power / (ticks * self.num_envs * self.max_power_w),
                self.allocator._level_idx / max(n_levels - 1, 1),
                self.allocator._tilt_idx / max(n_tilts - 1, 1),
            ]
        )

    def _window_reward(self) -> float:
        qos = self._win_qos_met / max(self._win_qos_total, 1)
        power = self._win_power / (
            max(self._win_ticks, 1) * self.num_envs * self.max_power_w
        )
        return qos - self.budget_config.energy_weight * power

    def _reallocate(self, t: int) -> None:
        state = self._fleet_state()
        primed = self.allocator.primed
        reward = self._window_reward() if primed else None
        level, tilt = self.allocator.decide(state, reward)
        slack = self._win_node_viol / max(
            self._win_ticks * len(self.service_order), 1
        )
        self.budgets = self.allocator.budgets(slack)
        if self.trace.enabled:
            self.trace.emit(
                make_event(
                    "budget_assign",
                    t,
                    level=float(level),
                    tilt=float(tilt),
                    mean_budget_w=float(self.budgets.mean()),
                    min_budget_w=float(self.budgets.min()),
                    max_budget_w=float(self.budgets.max()),
                    period=int(self.budget_config.period),
                    reward=float(reward) if reward is not None else 0.0,
                )
            )
        self._win_power = 0.0
        self._win_util = 0.0
        self._win_qos_met = 0
        self._win_qos_total = 0
        self._win_ticks = 0
        self._win_node_viol[:] = 0.0

    # ------------------------------------------------------------------ #
    # budget plumbing (FleetTwig hooks)
    # ------------------------------------------------------------------ #
    def _shape_reward_rows(
        self,
        env_rows: np.ndarray,
        totals: np.ndarray,
        qos_rew: np.ndarray,
        power_rew: np.ndarray,
        violation: np.ndarray,
    ) -> np.ndarray:
        """Budget-overshoot penalty over all healthy rows, in place.

        A node whose summed Equation-2 estimate exceeds its budget loses
        ``theta * (power / budget - 1)`` from every service's reward.
        """
        if not env_rows.size:
            return totals
        node_power = self._node_power_rows(self._est_power[env_rows])
        overshoot = np.maximum(
            0.0, node_power / np.maximum(self.budgets[env_rows], 1e-9) - 1.0
        )
        over = overshoot > 0.0
        if over.any():
            penalty = self.config.reward.theta * overshoot[over]
            totals[env_rows[over]] -= penalty[:, None]
        return totals

    def _repair_action_rows(
        self, env_rows: np.ndarray, actions: np.ndarray, arrival: np.ndarray
    ) -> np.ndarray:
        """Budget screen and lock-step greedy repair, in place.

        One :meth:`_power_for` pass screens every acting row; rows whose
        decoded actions overshoot their budget are then repaired in
        lock-step: each round, every still-over-budget row steps its
        highest-power shrinkable service (DVFS down first, else shed a
        core; the first service in order wins a tie) until the row fits
        or nothing can shrink. Deterministic throughout (no RNG draws).
        """
        if not env_rows.size:
            return actions
        cores = actions[:, :, 0] + 1
        freqs = actions[:, :, 1].copy()
        arr_rows = arrival[env_rows]
        power = self._power_for(cores, freqs, arr_rows)
        node_power = self._node_power_rows(power)
        budgets = self.budgets[env_rows]
        active = np.nonzero(node_power > budgets)[0]
        while active.size:
            c = cores[active]
            f = freqs[active]
            shrinkable = (f > 0) | (c > 1)
            has = shrinkable.any(axis=1)
            if not has.all():
                # Nothing left to shrink on some rows: they stop here,
                # over budget.
                active = active[has]
                if not active.size:
                    break
                c = c[has]
                f = f[has]
                shrinkable = shrinkable[has]
            # First max in service order, like max(key=...) over the list.
            sel = np.argmax(np.where(shrinkable, power[active], -np.inf), axis=1)
            r = np.arange(active.size)
            down = f[r, sel] > 0
            f[r[down], sel[down]] -= 1
            c[r[~down], sel[~down]] -= 1
            cores[active] = c
            freqs[active] = f
            fresh = self._power_for(c, f, arr_rows[active])
            power[active] = fresh
            fresh_node = self._node_power_rows(fresh)
            node_power[active] = fresh_node
            active = active[fresh_node > budgets[active]]
        actions[:, :, 0] = cores - 1
        actions[:, :, 1] = freqs
        return actions

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Flat fleet state plus the ``hier`` subtree (allocator etc.)."""
        tree = super().state_dict()
        tree["hier"] = {
            "allocator": self.allocator.state_dict(),
            "budgets": np.asarray(self.budgets, dtype=np.float64).copy(),
            "tick": int(self._tick),
            "window": {
                "power": float(self._win_power),
                "util": float(self._win_util),
                "qos_met": int(self._win_qos_met),
                "qos_total": int(self._win_qos_total),
                "ticks": int(self._win_ticks),
                "node_viol": np.asarray(self._win_node_viol, dtype=np.float64).copy(),
            },
            "provisioned": {
                f"{i:04d}": dict(entry)
                for i, entry in enumerate(self._provision_log)
            },
        }
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore fleet + hierarchy state (validates before committing)."""
        try:
            hier = dict(tree["hier"])
            allocator_tree = dict(hier["allocator"])
            budgets = np.asarray(hier["budgets"], dtype=np.float64).reshape(-1)
            tick = int(hier["tick"])
            window = dict(hier["window"])
            win_power = float(window["power"])
            win_util = float(window["util"])
            win_qos_met = int(window["qos_met"])
            win_qos_total = int(window["qos_total"])
            win_ticks = int(window["ticks"])
            node_viol = np.asarray(window["node_viol"], dtype=np.float64).reshape(-1)
            provisioned = dict(hier.get("provisioned", {}))
            provision_log = [
                {
                    "source": str(dict(provisioned[key])["source"]),
                    "restart_epsilon_at": int(
                        dict(provisioned[key])["restart_epsilon_at"]
                    ),
                }
                for key in sorted(provisioned)
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed hierarchical checkpoint (missing/bad 'hier' subtree): {exc}"
            ) from exc
        if budgets.shape[0] != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {budgets.shape[0]} budgets, fleet has {self.num_envs}"
            )
        if node_viol.shape[0] != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {node_viol.shape[0]} violation counters, "
                f"fleet has {self.num_envs}"
            )
        # A NaN budget switches the repair and the penalty off, a
        # non-positive one shrinks the node to nothing; a window the
        # running fleet cannot produce would reach the allocator's state,
        # reward and replay buffer at the next reallocation.
        if not (np.isfinite(budgets).all() and (budgets > 0).all()):
            raise CheckpointError(f"hier budgets must be finite and > 0, got {budgets}")
        if not np.isfinite(np.append(node_viol, [win_power, win_util])).all():
            raise CheckpointError("hier window power, util and node_viol must be finite")
        if min(tick, win_ticks, win_qos_met, win_qos_total, node_viol.min()) < 0:
            raise CheckpointError("hier tick, window counts and node_viol must be >= 0")
        if win_qos_met > win_qos_total:
            raise CheckpointError(
                f"hier window qos_met {win_qos_met} exceeds qos_total {win_qos_total}"
            )
        # The two sub-loads are each stage-then-commit; run them before
        # committing the plain fields.
        self.allocator.load_state_dict(allocator_tree)
        super().load_state_dict(tree)
        self.budgets = budgets.copy()
        self._tick = tick
        self._win_power = win_power
        self._win_util = win_util
        self._win_qos_met = win_qos_met
        self._win_qos_total = win_qos_total
        self._win_ticks = win_ticks
        self._win_node_viol = node_viol.copy()
        self._provision_log = provision_log
