"""Per-branch exploration, pinned draw for draw to the frozen loop.

:meth:`repro.rl.agent.BDQAgent._explore` must draw exactly what the
loop in ``tests/oracles/explore_reference.py`` draws: the same actions,
the same bit-generator state afterwards (the 128-bit state and the
buffered 32-bit half, ``has_uint32``/``uinteger``, stale value
included) and so the same next draw. Every run trace, golden hash and
saved agent RNG state rests on that. Both act paths are checked:
``act`` with one state and ``act_batch`` with stacked rows.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core.fleet import FleetBDQAgent
from repro.errors import ConfigurationError
from repro.rl.agent import BDQAgent, BDQAgentConfig
from tests.oracles.explore_reference import ReferenceExploreAgent

LAYOUTS = {
    "four-agents": [[18, 9]] * 4,
    "manage-llc": [[18, 9, 12]] * 2,
    "tiny": [[2, 3]],
}
EPSILONS = [0.0, 0.001, 0.01, 0.05, 0.1, 0.3, 0.55, 0.9, 1.0]
SEEDS = range(30)
STATE_DIM = 5

# numpy's PCG64 (XSL-RR 128/64) multiplier, for crafting states.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def _config(layout, epsilon):
    return BDQAgentConfig(
        state_dim=STATE_DIM,
        branch_sizes=layout,
        shared_hidden=(8,),
        branch_hidden=4,
        batch_size=8,
        min_buffer_size=8,
        buffer_capacity=64,
        epsilon_start=epsilon,
        epsilon_mid=epsilon,
        epsilon_final=epsilon,
    )


@lru_cache(maxsize=None)
def _pair(layout_name, epsilon):
    """The package agent and the oracle agent, with equal weights."""
    config = _config(LAYOUTS[layout_name], epsilon)
    agent = FleetBDQAgent(config, np.random.default_rng(0), num_envs=1)
    reference = ReferenceExploreAgent(config, np.random.default_rng(0), num_envs=1)
    assert agent.epsilon() == reference.epsilon() == epsilon
    return agent, reference


def _act_both(agent, reference, states):
    """Act on both agents; one state goes through ``act``, more through
    ``act_batch``. Returns both flat action lists."""
    if len(states) == 1:
        return (
            [a for row in agent.act(states[0]) for a in row],
            [a for row in reference.act(states[0]) for a in row],
        )
    return agent.act_batch(states).tolist(), reference.act_batch(states).tolist()


def _assert_same_stream(agent, reference, context):
    assert agent._rng.bit_generator.state == reference._rng.bit_generator.state, context
    assert agent._rng.random() == reference._rng.random(), context


@pytest.mark.parametrize("buffered", [False, True], ids=["no-half", "half-buffered"])
@pytest.mark.parametrize("rows", [1, 3, 256])
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
def test_explore_matches_reference_loop(layout_name, epsilon, rows, buffered):
    agent, reference = _pair(layout_name, epsilon)
    for seed in SEEDS:
        start = np.random.default_rng(seed).bit_generator.state
        for side in (agent, reference):
            side._rng.bit_generator.state = start
            if buffered:
                # An earlier integers() call leaves its high half buffered.
                side._rng.integers(0, 7)
        assert agent._rng.bit_generator.state["has_uint32"] == int(buffered)
        states = np.random.default_rng(1000 + seed).normal(size=(rows, STATE_DIM))
        actions, expected = _act_both(agent, reference, states)
        context = (layout_name, epsilon, rows, buffered, seed)
        assert actions == expected, context
        _assert_same_stream(agent, reference, context)


def _xsl_rr(state):
    """PCG64's output word of a 128-bit state."""
    rot = state >> 122
    x = (state >> 64) ^ (state & MASK64)
    return ((x >> rot) | (x << (64 - rot))) & MASK64


def _state_with_output(word, high):
    """A 128-bit state with high 64 bits ``high`` whose output is ``word``."""
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & MASK64) ^ high
    state = (high << 64) | low
    assert _xsl_rr(state) == word
    return state


def _steps_back(state, inc, k):
    inverse = pow(PCG64_MULT, -1, 1 << 128)
    for _ in range(k):
        state = ((state - inc) * inverse) & MASK128
    return state


def test_lemire_rejection_matches_reference_loop():
    """A global move whose first 32-bit draw Lemire's method rejects.

    ``x = 954437177`` gives ``x * 18 mod 2**32 = 2``, below the rejection
    threshold ``(2**32 - 18) % 18 = 4``, so ``integers(0, 18)`` draws
    again, from the buffered high half of the same word. No seed reaches
    this (about once in 1e9 draws), so the state is crafted: at ε = 1
    with no half buffered, the third word is the test word of entry 0,
    its coin, then this one.
    """
    x = 954437177
    assert (x * 18) & 0xFFFFFFFF < (2**32 - 18) % 18
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    for high_half in range(0x9E3779B9, 0x9E3779B9 + 64):
        word = (high_half << 32) | x
        start = _steps_back(_state_with_output(word, 0x9E3779B97F4A7C15), inc, 3)
        state = {
            "bit_generator": "PCG64",
            "state": {"state": start, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        probe = np.random.Generator(np.random.PCG64())
        probe.bit_generator.state = state
        words = probe.bit_generator.random_raw(3).tolist()
        assert words[2] == word
        if words[1] < 1 << 63:  # the coin picks the global move
            break
    else:
        pytest.fail("no high half sends the entry to the global move")
    probe.bit_generator.state = state
    probe.random(), probe.random()
    rejected = int(probe.integers(0, 18))
    assert rejected == (high_half * 18) >> 32 != (x * 18) >> 32

    agent, reference = _pair("four-agents", 1.0)
    for side in (agent, reference):
        side._rng.bit_generator.state = state
    states = np.random.default_rng(3).normal(size=(1, STATE_DIM))
    actions, expected = _act_both(agent, reference, states)
    assert actions == expected
    assert actions[0] == rejected
    _assert_same_stream(agent, reference, "rejection")


def test_agent_refuses_a_bit_generator_other_than_pcg64():
    config = _config([[18, 9]], 1.0)
    with pytest.raises(ConfigurationError, match="PCG64"):
        BDQAgent(config, np.random.Generator(np.random.MT19937(1)))
    with pytest.raises(ConfigurationError, match="PCG64"):
        FleetBDQAgent(config, np.random.Generator(np.random.MT19937(1)), num_envs=2)
