"""Deep Q-learning agent over the (multi-agent) BDQ network.

Implements Algorithm 1 of the paper: ε-greedy action selection with epsilon
annealing, prioritised experience replay, double-Q per-branch TD targets
(averaged across branches, as in Tavakoli et al.), per-branch MSE loss, and
periodic target-network synchronisation. The agent is variant-agnostic:
Twig-S instantiates it with one learning agent, Twig-C with one per
colocated service.

There is one replay and one acting path. Transitions go into a
:class:`~repro.rl.striped.StripedPrioritizedReplayBuffer`, one ring
stripe per environment feeding the agent (one for a plain
:class:`BDQAgent`; :class:`repro.core.fleet.FleetBDQAgent` has a stripe
per fleet node), and every greedy action comes from
:meth:`BDQNetwork.greedy_actions_batch`.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.ckpt.checkpoint import (
    checkpoint_kind,
    load_state,
    rng_state,
    save_state,
    set_rng_state,
)
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.nn.network import load_weights, save_weights
from repro.nn.optim import Adam
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
from repro.obs.timing import TimingRegistry
from repro.rl.bdq import BDQNetwork
from repro.rl.schedules import LinearSchedule, PiecewiseSchedule
from repro.rl.striped import StripedPrioritizedReplayBuffer, one_stripe_state

#: ``Generator.random()`` of a PCG64 word ``w`` is ``(w >> 11) * _DOUBLE_UNIT``.
_DOUBLE_UNIT = 2.0**-53
#: ``random() < 0.5`` exactly when the word is below this.
_TOP_BIT = 1 << 63
_LOW32 = 0xFFFFFFFF
#: The most words an explored entry draws besides its test word, short of
#: a Lemire rejection: the coin, one 32-bit draw and the sign.
_EXPLORE_WORDS = 3


@dataclass
class Transition:
    """One environment interaction for all agents jointly."""

    state: np.ndarray
    actions: List[List[int]]
    rewards: np.ndarray
    next_state: np.ndarray
    done: bool = False


@dataclass
class BDQAgentConfig:
    """Hyper-parameters; defaults are the paper's (Section IV).

    The ε schedule anneals 1 → 0.1 over ``epsilon_mid_steps`` and on to
    0.01 by ``epsilon_final_steps`` (the paper uses 10 000 s and 25 000 s
    with one step per second).
    """

    state_dim: int = 11
    branch_sizes: Sequence[Sequence[int]] = field(default_factory=lambda: [[18, 9]])
    learning_rate: float = 0.0025
    batch_size: int = 64
    discount: float = 0.99
    target_update_every: int = 150
    epsilon_start: float = 1.0
    epsilon_mid: float = 0.1
    epsilon_final: float = 0.01
    epsilon_mid_steps: int = 10_000
    epsilon_final_steps: int = 25_000
    buffer_capacity: int = 100_000
    use_prioritized_replay: bool = True
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_steps: int = 25_000
    min_buffer_size: int = 200
    shared_hidden: Sequence[int] = (512, 256)
    branch_hidden: int = 128
    dropout: float = 0.5
    max_grad_norm: Optional[float] = 10.0
    train_every: int = 1
    gradient_steps: int = 1  # minibatch updates per training round

    def __post_init__(self) -> None:
        if self.epsilon_mid_steps >= self.epsilon_final_steps:
            raise ConfigurationError(
                "epsilon_mid_steps must be < epsilon_final_steps "
                f"({self.epsilon_mid_steps} >= {self.epsilon_final_steps})"
            )
        if not 0.0 < self.discount <= 1.0:
            raise ConfigurationError(f"discount must be in (0, 1], got {self.discount}")
        if self.batch_size <= 0 or self.buffer_capacity < self.batch_size:
            raise ConfigurationError(
                f"need buffer_capacity >= batch_size > 0, got "
                f"({self.buffer_capacity}, {self.batch_size})"
            )


class BDQAgent:
    """ε-greedy deep Q-learning over a :class:`BDQNetwork`.

    Replays from :attr:`striped`, a
    :class:`~repro.rl.striped.StripedPrioritizedReplayBuffer` with
    ``num_envs`` stripes of ``buffer_capacity // num_envs`` slots (at
    least one batch): one stripe holding ``buffer_capacity`` transitions
    for a plain agent. ``use_prioritized_replay`` picks proportional or
    uniform sampling over it.

    ``network_cls`` is an override hook for the Q-network implementation;
    ``ReferenceBDQAgent`` (``tests/oracles/bdq_reference.py``) uses it to run the
    frozen pre-fusion per-head loop for equivalence tests and benchmarks.

    ``rng`` must be a ``Generator`` over a ``PCG64`` bit generator
    (``np.random.default_rng``): exploration reproduces its draws from
    raw PCG64 words (:meth:`_explore`), and any other bit generator is
    refused with :class:`~repro.errors.ConfigurationError`, because it
    would explore differently without an error (MT19937, for one, builds
    a double from two 32-bit draws).
    """

    network_cls: ClassVar[type] = BDQNetwork
    #: Replay stripes, one per environment feeding the agent.
    num_envs: int = 1

    def __init__(
        self,
        config: BDQAgentConfig,
        rng: np.random.Generator,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        bit_generator = getattr(rng, "bit_generator", None)
        if not isinstance(bit_generator, np.random.PCG64):
            raise ConfigurationError(
                "BDQAgent needs a Generator over PCG64 (np.random.default_rng), got "
                f"{type(rng).__name__} over {type(bit_generator).__name__}"
            )
        self.config = config
        self._rng = rng
        self.trace = trace or NULL_SINK
        self.timings = timings
        self.online = self.network_cls(
            config.state_dim,
            config.branch_sizes,
            rng,
            shared_hidden=config.shared_hidden,
            branch_hidden=config.branch_hidden,
            dropout=config.dropout,
        )
        self.target = self.online.clone(rng)
        self.optimizer = Adam(
            self.online.optim_parameters(),
            learning_rate=config.learning_rate,
            max_grad_norm=config.max_grad_norm,
        )
        self.striped = self._make_replay()
        self.epsilon_schedule = PiecewiseSchedule(
            [
                (0, config.epsilon_start),
                (config.epsilon_mid_steps, config.epsilon_mid),
                (config.epsilon_final_steps, config.epsilon_final),
            ]
        )
        self.beta_schedule = LinearSchedule(config.per_beta_start, 1.0, config.per_beta_steps)
        self._branch_sizes_flat = [int(n) for agent in config.branch_sizes for n in agent]
        # Float divisor of each agent's branch-value sum.
        self._branches_per_agent = np.array(
            [len(agent) for agent in config.branch_sizes], dtype=np.float64
        )
        self.step_count = 0
        self.train_count = 0
        self.last_loss: Optional[float] = None
        self.last_td_error: Optional[float] = None
        self.exploring_frozen = False

    def _make_replay(self) -> StripedPrioritizedReplayBuffer:
        config = self.config
        return StripedPrioritizedReplayBuffer(
            self.num_envs,
            max(config.buffer_capacity // self.num_envs, config.batch_size),
            self._rng,
            alpha=config.per_alpha,
        )

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    @property
    def num_agents(self) -> int:
        return self.online.num_agents

    def epsilon(self) -> float:
        if self.exploring_frozen:
            return 0.0
        return self.epsilon_schedule(self.step_count)

    def act(self, state: np.ndarray, greedy: bool = False) -> List[List[int]]:
        """Choose one action index per branch per agent (Algorithm 1, l.7-8).

        Exploration is epsilon-greedy *per branch*: each action dimension
        independently takes a uniform random action with probability
        epsilon, the others stay greedy. Randomising every branch jointly
        would mean a low-DVFS trial almost always co-occurs with a random
        (frequently catastrophic) core count, so the DVFS branch would only
        ever associate low frequencies with violations; per-branch noise
        explores in the neighbourhood of the current policy instead, which
        is what lets the branches coordinate. The noise comes from
        :meth:`_explore`, which ``FleetBDQAgent.act_batch`` shares, so
        acting on M states one by one draws what acting on them stacked
        draws.
        """
        if self.timings is not None:
            with self.timings.measure("agent.act"):
                return self._act(state, greedy)
        return self._act(state, greedy)

    def _act(self, state: np.ndarray, greedy: bool) -> List[List[int]]:
        state = np.asarray(state, dtype=np.float64).reshape(-1)
        if state.shape[0] != self.config.state_dim:
            raise ShapeError(
                f"state has dim {state.shape[0]}, expected {self.config.state_dim}"
            )
        flat = self.online.greedy_actions_batch(state[None])[0]
        if not greedy:
            self._explore(flat, self.epsilon())
        actions: List[List[int]] = []
        b = 0
        for agent in self.online.branch_sizes:
            actions.append([int(a) for a in flat[b : b + len(agent)]])
            b += len(agent)
        return actions

    def _explore(self, actions, epsilon: float) -> None:
        """Apply per-branch epsilon noise to a flat action array, in place.

        ``actions`` is a mutable 1-D int array of whole rows of
        agent-major branch actions, row after row. Each entry draws, in
        order: one ``random()``, and explores if it is below ``epsilon``;
        then a ``random()`` coin, below 0.5 for the global move
        ``integers(0, n)``, else the local move ``integers(1, 5)`` and a
        ``random()`` sign. M stacked rows thus draw exactly like M
        consecutive single-state calls; both act paths share this method.

        The draws are reproduced from the PCG64 stream's raw 64-bit
        words, bit for bit and with the same generator state afterwards
        (``tests/oracles/explore_reference.py`` keeps the per-entry loop
        this replaces):

        - ``random()`` is ``(w >> 11) * 2**-53`` of one word ``w``, so
          the explore tests of a block of words are one array compare;
        - ``integers(0, n)`` is Lemire's method over 32-bit draws. A
          32-bit draw takes the low half of a fresh word and leaves the
          high half buffered in the bit generator (``has_uint32``,
          ``uinteger``) for the next one; ``random()`` never touches
          that buffer. ``integers(1, 5)`` is ``1 +`` Lemire over 4,
          which never rejects.

        The words of a call are drawn in one block, as many as its entries
        can consume: one test word each, and up to three more (the coin,
        a 32-bit draw and the sign) for each explored entry, short of a
        Lemire rejection. The block counts on the expected share of
        explored entries plus four, and on no more entries than there
        are; only a call that explores more, or a run of rejections,
        uses it up, and another block is then drawn for the entries
        left. The words not consumed are handed back by rewinding the
        stream (``advance`` with a negative count, exact for PCG64). A
        rewind clears the buffered half, so the half is read before
        anything is drawn and written back at the end.
        """
        total = len(actions)
        if total == 0:
            return
        bitgen = self._rng.bit_generator
        sizes = self._branch_sizes_flat
        width = len(sizes)
        state = bitgen.state
        half = [state["has_uint32"], state["uinteger"]]
        block = np.empty(0, dtype=np.uint64)  # the last block drawn
        hits: List[int] = []  # positions in ``block`` whose random() < epsilon
        pos = 0  # the next word of ``block`` to consume

        def draw(entry: int) -> None:
            # Words for ``entry`` and every entry after it: one test each,
            # and the most the explored ones can take, counting at most
            # the expected share of them plus four.
            nonlocal block, hits, pos
            left = total - entry
            explored = min(left, math.ceil(epsilon * left) + 4)
            block = bitgen.random_raw(left + _EXPLORE_WORDS * explored)
            hits = ((block >> 11) * _DOUBLE_UNIT < epsilon).nonzero()[0].tolist()
            pos = 0

        def word(entry: int) -> int:
            nonlocal pos
            if pos == len(block):
                draw(entry)
            pos += 1
            return block.item(pos - 1)

        def uint32(entry: int) -> int:
            if half[0]:
                # numpy leaves the handed-out half in ``uinteger``.
                half[0] = 0
                return half[1]
            w = word(entry)
            half[0], half[1] = 1, w >> 32
            return w & _LOW32

        draw(0)
        entry = 0
        while entry < total:
            h = bisect_left(hits, pos)
            if h == len(hits):
                # No word left in the block explores: each is one entry's test.
                left = len(block) - pos
                if left >= total - entry:
                    pos += total - entry
                    break
                entry += left
                draw(entry)
                continue
            entry += hits[h] - pos
            if entry >= total:
                # The entries left stay greedy; the words from the hit on
                # are surplus.
                pos = hits[h] - (entry - total)
                break
            pos = hits[h] + 1
            n = sizes[entry % width]
            if word(entry) < _TOP_BIT:  # the coin's random() < 0.5
                # Global: uniform over the branch's n >= 2 actions (for
                # n = 1, integers(0, 1) would draw nothing).
                m = uint32(entry) * n
                if m & _LOW32 < n:
                    threshold = (_LOW32 + 1 - n) % n
                    while m & _LOW32 < threshold:
                        m = uint32(entry) * n
                actions[entry] = m >> 32
            else:
                # Local: a +-1..4 step from the greedy action, which lets
                # the policy walk across shallow reward valleys (e.g.
                # "add cores now, drop DVFS next") one branch at a time.
                step = 1 + (uint32(entry) >> 30)
                if word(entry) >= _TOP_BIT:
                    step = -step
                actions[entry] = min(max(int(actions[entry]) + step, 0), n - 1)
            entry += 1
        surplus = len(block) - pos
        if surplus:
            bitgen.advance(-surplus)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = half
        bitgen.state = state

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def observe(self, transition: Transition) -> Optional[float]:
        """Store a transition and (maybe) run a training step.

        Returns the training loss when a gradient step was taken. Every
        width is checked before anything is stored: the first stored row
        fixes the replay widths, so one wrong-width row would make every
        later correct call raise.
        """
        if len(transition.rewards) != self.num_agents:
            raise ShapeError(
                f"expected {self.num_agents} rewards, got {len(transition.rewards)}"
            )
        state = np.asarray(transition.state, dtype=np.float64)
        next_state = np.asarray(transition.next_state, dtype=np.float64)
        for key, value in (("state", state), ("next_state", next_state)):
            if value.shape != (self.config.state_dim,):
                raise ShapeError(
                    f"{key} has shape {value.shape}, expected ({self.config.state_dim},)"
                )
        self.striped.add(
            0,
            {
                "state": state,
                "actions": np.asarray(self._flatten_actions(transition.actions), dtype=np.float64),
                "rewards": np.asarray(transition.rewards, dtype=np.float64),
                "next_state": next_state,
                "done": np.asarray(float(transition.done)),
            },
        )
        return self._advance()

    def _advance(self) -> Optional[float]:
        """One control interval: step the schedules, maybe train, maybe sync.

        Returns the loss of the last gradient step taken, else ``None``.
        """
        self.step_count += 1
        loss = None
        if (
            len(self.striped) >= self.config.min_buffer_size
            and self.step_count % self.config.train_every == 0
        ):
            for _ in range(self.config.gradient_steps):
                loss = self.train_step()
        if self.step_count % self.config.target_update_every == 0:
            self.target.copy_from(self.online)
        return loss

    def _flatten_actions(self, actions: Sequence[Sequence[int]]) -> List[int]:
        if len(actions) != self.num_agents:
            raise ShapeError(f"expected {self.num_agents} agents' actions, got {len(actions)}")
        flat: List[int] = []
        for k, agent in enumerate(actions):
            expected = len(self.online.branch_sizes[k])
            if len(agent) != expected:
                raise ShapeError(
                    f"agent {k} supplied {len(agent)} branch actions, expected {expected}"
                )
            flat.extend(int(a) for a in agent)
        # A train step reads each stored action's Q-value by flat offset,
        # so an action outside its branch would read another column.
        for a, n in zip(flat, self._branch_sizes_flat):
            if not 0 <= a < n:
                raise ShapeError(
                    f"actions {flat} out of range for branch sizes {self._branch_sizes_flat}"
                )
        return flat

    def _unflatten_actions(self, flat: np.ndarray) -> List[np.ndarray]:
        """Split a (batch, total_branches) action matrix into per-branch columns."""
        return list(np.asarray(flat, dtype=np.int64).T)

    def train_step(self) -> float:
        """One minibatch gradient step (Algorithm 1, line 13)."""
        if self.timings is not None:
            with self.timings.measure("agent.train"):
                return self._train_step()
        return self._train_step()

    def _measure(self, label: str):
        """Timing context for a train-step sub-section (no-op untimed)."""
        if self.timings is None:
            return nullcontext()
        return self.timings.measure(label)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def _replay_sample(self):
        """Draw one training minibatch; returns ``(batch, weights, beta)``."""
        with self._measure("agent.train.replay"):
            if self.config.use_prioritized_replay:
                # Batched tree descent + gather; no per-transition Python loop.
                beta = self.beta_schedule(self.step_count)
                batch = self.striped.sample(self.config.batch_size, beta=beta)
                weights = batch["weights"]
            else:
                beta = 1.0
                batch = self.striped.sample_uniform(self.config.batch_size)
                weights = np.ones(len(batch["indices"]))
        return batch, weights, beta

    def _replay_update(self, batch: Dict[str, Any], td_error_accum: np.ndarray) -> None:
        """Write new priorities for the sampled transitions (PER only)."""
        if self.config.use_prioritized_replay:
            with self._measure("agent.train.replay"):
                priorities = td_error_accum / self.online.total_branches
                self.striped.update_priorities(batch["indices"], priorities)

    def _train_step(self) -> float:
        """Vectorized over a flat branch axis — no per-agent/per-branch loops.

        All per-branch bookkeeping (double-Q target construction, TD-error
        and priority accumulation) happens as array ops on ``(batch,
        total_branches)`` Q-values at one action per branch:
        :meth:`BDQNetwork.forward_train` returns the online network's at
        the replayed actions, :meth:`BDQNetwork.forward_stacked` the
        target network's at the online argmax, and
        :meth:`BDQNetwork.backward_stacked` takes the loss gradient at the
        replayed actions. No full ``(batch, total_branches, out_max)``
        Q tensor is built. The math matches the per-branch reference loop
        (``ReferenceBDQAgent`` in ``tests/oracles/bdq_reference.py``) to
        float round-off.
        """
        config = self.config
        net = self.online
        batch, weights, beta = self._replay_sample()

        states = batch["state"]
        next_states = batch["next_state"]
        rewards = batch["rewards"]
        done = batch["done"].reshape(-1)
        chosen = np.asarray(batch["actions"], dtype=np.int64)       # (batch, B)
        batch_size = states.shape[0]

        with self._measure("agent.train.forward"):
            # Double Q-learning: online network picks actions, target
            # evaluates. Action selection argmaxes the raw advantages (the
            # branch argmax of Q and of A coincide — V and mean-A are
            # branch constants), skipping the online net's value heads and
            # dueling aggregation for next_states. Padded entries are
            # -inf, so argmax needs no mask, and the best actions are
            # always valid ones for the target to be read at.
            # Both online-net forwards (training predictions on states,
            # advantage tail on next_states) run as ONE row-concatenated
            # pass — each layer's GEMM covers the union of rows; only the
            # training rows draw dropout masks, so the RNG stream matches
            # separate calls.
            selected, online_next = net.forward_train(states, next_states, chosen)
            best = np.argmax(online_next, axis=2)                   # (batch, B)
            branch_values = self.target.forward_stacked(next_states, best)
            # Per-agent mean over its (contiguous) branch span.
            mean_next = (
                np.add.reduceat(branch_values, net.agent_branch_starts, axis=1)
                / self._branches_per_agent
            )
            targets = rewards + config.discount * (1.0 - done)[:, None] * mean_next

        with self._measure("agent.train.backward"):
            branch_targets = targets[:, net.branch_agent_index]
            diff = selected - branch_targets
            # Paper: loss is the mean squared error across each branch per
            # agent; importance weights scale each transition's square.
            scale = 1.0 / net.total_branches
            weighted_diff = weights[:, None] * diff
            total_loss = float(
                ((weighted_diff * diff).sum(axis=0) / batch_size).sum() * scale
            )
            grad_selected = (2.0 * scale / batch_size) * weighted_diff
            td_error_accum = np.abs(diff).sum(axis=1)

            # The backward assigns: one backward per step writes every
            # gradient exactly once, so there is no zero_grad.
            net.backward_stacked(grad_selected)
        with self._measure("agent.train.optim"):
            # The backward just computed the global gradient
            # sq-norm while the gradients were cache-hot; reuse it for the
            # clip instead of re-streaming the arena.
            self.optimizer.step(grad_sq_sum=net.last_grad_sq_sum)

        self._replay_update(batch, td_error_accum)

        self.train_count += 1
        self.last_loss = float(total_loss)
        self.last_td_error = float(td_error_accum.mean() / self.online.total_branches)
        if self.trace.enabled:
            self.trace.emit(
                make_event(
                    "train_step",
                    self.step_count,
                    step=self.step_count,
                    train_count=self.train_count,
                    loss=self.last_loss,
                    epsilon=self.epsilon(),
                    beta=float(beta),
                    buffer_size=len(self.striped),
                    mean_td_error=self.last_td_error,
                )
            )
        return self.last_loss

    # ------------------------------------------------------------------ #
    # transfer learning & persistence
    # ------------------------------------------------------------------ #
    def transfer(
        self,
        rng: Optional[np.random.Generator] = None,
        restart_epsilon_at: Optional[int] = None,
    ) -> None:
        """Adapt the trained agent to a new problem (Section IV).

        Re-randomises the output layer of every head, resyncs the target
        network, and — when ``restart_epsilon_at`` is given — rewinds the
        ε schedule to that step so new experience is gathered.
        ``restart_epsilon_at=0`` restarts exploration from scratch; the
        sentinel is ``None`` (a falsy check here used to make the 0 rewind
        unreachable), so omitting it leaves the schedule untouched.
        """
        rng = rng or self._rng
        self.online.reinitialize_output_layers(rng)
        self.target.copy_from(self.online)
        if restart_epsilon_at is not None:
            if restart_epsilon_at < 0:
                raise ConfigurationError(
                    f"restart_epsilon_at must be >= 0, got {restart_epsilon_at}"
                )
            self.step_count = int(restart_epsilon_at)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    #: Checkpoint kind tag for full agent state (see :mod:`repro.ckpt`).
    CKPT_KIND: ClassVar[str] = "bdq_agent"

    def _optimizer_state(self) -> Dict[str, Any]:
        """Optimizer state in the per-``parameters()`` layout.

        Adam keeps one (m, v) pair for the network's whole flat arena
        (:meth:`BDQNetwork.optim_parameters`); each is exported as one
        entry per parameter (:meth:`BDQNetwork.arena_views`), the layout
        checkpoints store. Padded stack entries carry zero moments (their
        gradients are always zero), so the translation is lossless both
        ways. Before the first step there are no moments.
        """
        opt = self.optimizer
        state: Dict[str, Any] = {"step_count": opt._step_count}
        for name, moments in (
            ("first_moment", opt._first_moment),
            ("second_moment", opt._second_moment),
        ):
            flat = moments.get(0)
            views = [] if flat is None else self.online.arena_views(flat)
            state[name] = {f"{i:04d}": view.copy() for i, view in enumerate(views)}
        return state

    def _load_moments(
        self, first: Dict[int, np.ndarray], second: Dict[int, np.ndarray]
    ) -> None:
        """Commit staged per-parameter moments (keyed by ``parameters()``
        index) into the optimizer's flat arena moments; a parameter
        without an entry, or a padded stack entry, gets zero."""
        opt = self.optimizer
        opt._first_moment, opt._second_moment = {}, {}
        if not first:
            return
        for moments, staged in ((opt._first_moment, first), (opt._second_moment, second)):
            flat = np.zeros_like(opt.parameters[0].value)
            views = self.online.arena_views(flat)
            for index, value in staged.items():
                views[index][...] = value
            moments[0] = flat

    def state_dict(self) -> Dict[str, Any]:
        """The complete training state as a checkpointable tree.

        Covers everything resume needs for bit-exact continuation: both
        networks, Adam moments and step, the striped replay buffer with
        its sum-tree priorities, schedule counters, and the shared RNG
        stream (one generator drives action noise, dropout masks, and
        replay sampling for this agent).
        """
        params = self.online.parameters()
        return {
            "config": {
                "state_dim": self.config.state_dim,
                "branch_sizes": [list(branch) for branch in self.online.branch_sizes],
            },
            "online": {f"{i:04d}": p.value.copy() for i, p in enumerate(params)},
            "target": {
                f"{i:04d}": p.value.copy() for i, p in enumerate(self.target.parameters())
            },
            "optimizer": self._optimizer_state(),
            "buffer_kind": self._buffer_kind(),
            "counters": {
                "step_count": self.step_count,
                "train_count": self.train_count,
                "exploring_frozen": self.exploring_frozen,
                "last_loss": self.last_loss,
                "last_td_error": self.last_td_error,
            },
            "rng": rng_state(self._rng),
            "num_envs": self.num_envs,
            "striped": self.striped.state_dict(),
        }

    def _buffer_kind(self) -> str:
        return "prioritized" if self.config.use_prioritized_replay else "uniform"

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore state from :meth:`state_dict` (stage-then-commit).

        Everything is parsed and shape-checked before the first mutation;
        any mismatch raises :class:`CheckpointError` and leaves the agent
        untouched. A tree without ``striped`` holds the scalar replay ring
        agents kept before they replayed from stripes, prioritized or
        uniform, under ``buffer``: it loads as stripe 0, with the same
        capacity, cursor, rows and sum tree. A tree with both (a fleet
        agent's, from then) drops its unused, empty ``buffer``.
        """
        if "striped" not in tree:
            tree = dict(tree, num_envs=1, striped=one_stripe_state(tree.get("buffer", {})))
        params = self.online.parameters()
        target_params = self.target.parameters()
        try:
            config = tree["config"]
            state_dim = int(config["state_dim"])
            branch_sizes = [list(map(int, branch)) for branch in config["branch_sizes"]]
            online_tree = dict(tree["online"])
            target_tree = dict(tree["target"])
            optim_tree = dict(tree["optimizer"])
            optim_steps = int(optim_tree["step_count"])
            buffer_kind = str(tree["buffer_kind"])
            counters = dict(tree["counters"])
            step_count = int(counters["step_count"])
            train_count = int(counters["train_count"])
            exploring_frozen = bool(counters["exploring_frozen"])
            last_loss = counters.get("last_loss")
            last_td_error = counters.get("last_td_error")
            rng_tree = dict(tree["rng"])
            num_envs = int(tree["num_envs"])
            striped_tree = dict(tree["striped"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed agent checkpoint: {exc}") from exc
        if state_dim != self.config.state_dim:
            raise CheckpointError(
                f"checkpoint state_dim {state_dim} != agent state_dim {self.config.state_dim}"
            )
        if branch_sizes != [list(branch) for branch in self.online.branch_sizes]:
            raise CheckpointError(
                f"checkpoint branch_sizes {branch_sizes} != agent "
                f"branch_sizes {[list(b) for b in self.online.branch_sizes]}"
            )
        if buffer_kind != self._buffer_kind():
            raise CheckpointError(
                f"checkpoint replay kind {buffer_kind!r} != agent replay kind "
                f"{self._buffer_kind()!r}"
            )
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {num_envs} replay stripes, agent has {self.num_envs}"
            )
        self._check_replay_fields(striped_tree)
        # A scratch buffer stages the replay: its load is itself
        # stage-then-commit, so a malformed one rejects the checkpoint here.
        replay = self._make_replay()
        replay.load_state_dict(striped_tree)

        online_values = self.online.stage_weights(online_tree, "checkpoint online")
        target_values = self.target.stage_weights(target_tree, "checkpoint target")

        def stage_moments(name: str) -> Dict[int, np.ndarray]:
            staged: Dict[int, np.ndarray] = {}
            for key, value in dict(optim_tree.get(name, {})).items():
                try:
                    index = int(key)
                except ValueError as exc:
                    raise CheckpointError(f"bad optimizer moment key {key!r}") from exc
                if not 0 <= index < len(params):
                    raise CheckpointError(f"optimizer moment indexes unknown parameter {index}")
                value = np.asarray(value, dtype=np.float64)
                if value.shape != params[index].value.shape:
                    raise CheckpointError(
                        f"optimizer {name}[{index}] shape {value.shape} != "
                        f"parameter shape {params[index].value.shape}"
                    )
                staged[index] = value
            return staged

        first = stage_moments("first_moment")
        second = stage_moments("second_moment")
        if sorted(first) != sorted(second):
            raise CheckpointError("optimizer first/second moment entries disagree")
        # Pre-validate the RNG state against a scratch generator of the
        # same bit-generator class, so a malformed state cannot fail after
        # the commit has started.
        scratch = np.random.Generator(type(self._rng.bit_generator)())
        set_rng_state(scratch, rng_tree)

        # ---- commit: nothing below can reject.
        self.striped = replay
        for param, value in zip(params, online_values):
            param.value[...] = value
        for param, value in zip(target_params, target_values):
            param.value[...] = value
        self.optimizer._step_count = optim_steps
        self._load_moments(first, second)
        self.step_count = step_count
        self.train_count = train_count
        self.exploring_frozen = exploring_frozen
        self.last_loss = None if last_loss is None else float(last_loss)
        self.last_td_error = None if last_td_error is None else float(last_td_error)
        set_rng_state(self._rng, rng_tree)

    def _check_replay_fields(self, striped_tree: Dict[str, Any]) -> None:
        """Refuse stored replay rows a train step or an insert could not use.

        Every stored row needs a ``state_dim`` state and next state, one
        reward per agent and one ``done`` value: a wider state makes the
        next insert raise ``ShapeError``, and a reward column too many
        trains silently on the wrong column. A train step also casts the
        sampled rows' actions to int and indexes each branch's Q-values
        with them: an index at or past its branch size raises
        ``IndexError`` there, a negative one counts from the end and a
        fractional one is truncated. All of these are refused here,
        before anything is committed.
        """
        try:
            fields = {
                key: np.asarray(value, dtype=np.float64)
                for key, value in dict(striped_tree.get("fields") or {}).items()
            }
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed striped replay fields: {exc}") from exc
        if not fields:
            return
        sizes = self._branch_sizes_flat
        widths = {
            "state": (self.config.state_dim,),
            "actions": (len(sizes),),
            "rewards": (self.num_agents,),
            "next_state": (self.config.state_dim,),
            "done": (),
        }
        if set(fields) != set(widths):
            raise CheckpointError(
                f"striped replay fields {sorted(fields)} != {sorted(widths)}"
            )
        for key, width in widths.items():
            if fields[key].shape[1:] != width or fields[key].ndim != 1 + len(width):
                raise CheckpointError(
                    f"striped replay {key} rows have shape {fields[key].shape[1:]}, "
                    f"expected {width}"
                )
        actions = fields["actions"]
        if not np.all(actions == np.floor(actions)):
            raise CheckpointError("striped replay actions are not whole branch indices")
        if not (np.all(actions >= 0) and np.all(actions < np.asarray(sizes))):
            raise CheckpointError(
                f"striped replay actions out of range for branch sizes {sizes}"
            )

    def save(self, path: Union[str, Path]) -> None:
        """Write a full-training-state checkpoint (atomic; see repro.ckpt)."""
        save_state(path, self.CKPT_KIND, self.state_dict())

    def load(self, path: Union[str, Path]) -> None:
        """Restore from :meth:`save`; legacy weight-only ``.npz`` still loads.

        Legacy checkpoints (pre-``repro.ckpt`` files written by
        ``save_weights``) only carry the online network: the target is
        resynced from it and a warning records that optimizer moments,
        replay contents, schedule counters, and RNG streams could not be
        restored — such an agent is usable but will not reproduce the
        original run.
        """
        if checkpoint_kind(path) is None:
            warnings.warn(
                f"{path} is a legacy weight-only checkpoint: restoring network "
                "weights only (optimizer moments, replay buffer, schedule "
                "counters, and RNG state are not recoverable)",
                stacklevel=2,
            )
            load_weights(self.online.parameters(), path)
            self.target.copy_from(self.online)
            return
        self.load_state_dict(load_state(path, kind=self.CKPT_KIND))
