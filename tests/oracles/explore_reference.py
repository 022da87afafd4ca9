"""Frozen per-branch exploration loop of the BDQ agent.

This is, verbatim, the loop :meth:`repro.rl.agent.BDQAgent._explore` ran
before it read the agent's PCG64 stream as raw 64-bit words: one
``Generator.random()`` per branch entry, and for an explored entry a
coin, then ``integers(0, n)`` (global move) or ``integers(1, 5)`` and a
sign (local move). ``tests/test_rl_explore.py`` pins the package's
exploration against it: the same actions, the same bit-generator state
afterwards and the same next draw.

Do not "optimise" this module — its value is being the slow, obviously
correct baseline. It lives with the tests, outside the package.
"""

from __future__ import annotations

from repro.core.fleet import FleetBDQAgent


def explore_reference(agent, actions, epsilon: float) -> None:
    """Apply per-branch epsilon noise to a flat action array, in place.

    ``actions`` is a mutable 1-D int array of whole rows of
    agent-major branch actions, row after row. Each entry draws in
    order, so M stacked rows consume the RNG exactly like M
    consecutive single-state calls; both act paths share this loop.
    """
    random = agent._rng.random
    integers = agent._rng.integers
    sizes = agent._branch_sizes_flat * (len(actions) // len(agent._branch_sizes_flat))
    for i, n in enumerate(sizes):
        if random() >= epsilon:
            continue
        if random() < 0.5:
            # Global: uniform over the branch's actions.
            actions[i] = int(integers(0, n))
        else:
            # Local: a +-1..4 step from the greedy action, which lets
            # the policy walk across shallow reward valleys (e.g.
            # "add cores now, drop DVFS next") one branch at a time.
            step = int(integers(1, 5)) * (1 if random() < 0.5 else -1)
            actions[i] = min(max(int(actions[i]) + step, 0), n - 1)


class ReferenceExploreAgent(FleetBDQAgent):
    """A fleet agent whose ``act`` and ``act_batch`` explore through the
    frozen loop; everything else is the package's agent."""

    def _explore(self, actions, epsilon: float) -> None:
        explore_reference(self, actions, epsilon)
